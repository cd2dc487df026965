//! Estimator functions `f(u, d)` for best-first search (Section 5.3.2).
//!
//! "Estimator functions are used to select the best node on the frontierSet
//! to be explored in the current iteration. A perfect estimator function
//! helps the algorithm to discover the shortest path by exploring the
//! minimum number of nodes."
//!
//! The paper studies **Euclidean** distance ("always underestimates the
//! cost of the shortest path" when edge costs are at least the straight-line
//! distance between endpoints) and **Manhattan** distance ("a perfect
//! estimate ... in grid graphs with a uniform cost model", but "not always
//! an underestimate" on the Minneapolis data, where A\* therefore loses its
//! optimality guarantee — a trade-off the conclusions call out).

use atis_graph::{Norm, Point};

/// An estimator of the remaining cost from a node to the destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// `f(u,d) = 0`: best-first search degenerates to Dijkstra ("Best-first
    /// search without estimator functions is not very different from
    /// Dijkstra's algorithm", Section 3.3).
    Zero,
    /// Straight-line distance (A\* versions 1 and 2).
    Euclidean,
    /// L1 distance (A\* version 3).
    Manhattan,
    /// Manhattan scaled by a weight; `weight > 1` trades optimality for
    /// speed (the paper's future-work direction), `weight < 1` restores
    /// admissibility on maps whose edge costs can undercut unit grid
    /// spacing.
    WeightedManhattan {
        /// Multiplier applied to the Manhattan distance.
        weight: f64,
    },
}

impl Estimator {
    /// Evaluates the estimate between two positions.
    #[inline]
    pub fn evaluate(&self, from: Point, to: Point) -> f64 {
        match *self {
            Estimator::Zero => 0.0,
            Estimator::Euclidean => from.euclidean(&to),
            Estimator::Manhattan => from.manhattan(&to),
            Estimator::WeightedManhattan { weight } => weight * from.manhattan(&to),
        }
    }

    /// Evaluates from raw `f32` tuple coordinates (as stored in the node
    /// relation `R` / edge relation `S`).
    #[inline]
    pub fn evaluate_f32(&self, x: f32, y: f32, to: Point) -> f64 {
        self.evaluate(Point::new(x as f64, y as f64), to)
    }

    /// The length this estimator scales and by how much: `w × ‖·‖`
    /// never overestimates while no edge costs less than `w` times its
    /// `‖·‖` length (by the triangle inequality of the norm). `None` for
    /// [`Estimator::Zero`], which is always admissible.
    pub fn scales(&self) -> Option<(Norm, f64)> {
        match *self {
            Estimator::Zero => None,
            Estimator::Euclidean => Some((Norm::Euclidean, 1.0)),
            Estimator::Manhattan => Some((Norm::Manhattan, 1.0)),
            Estimator::WeightedManhattan { weight } => Some((Norm::Manhattan, weight)),
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Estimator::Zero => "zero",
            Estimator::Euclidean => "euclidean",
            Estimator::Manhattan => "manhattan",
            Estimator::WeightedManhattan { .. } => "weighted-manhattan",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert_eq!(
            Estimator::Zero.evaluate(Point::new(0.0, 0.0), Point::new(5.0, 5.0)),
            0.0
        );
    }

    #[test]
    fn euclidean_matches_point_method() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(Estimator::Euclidean.evaluate(a, b), 5.0);
    }

    #[test]
    fn manhattan_dominates_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!(Estimator::Manhattan.evaluate(a, b) >= Estimator::Euclidean.evaluate(a, b));
    }

    #[test]
    fn weighted_scales() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 2.0);
        let w = Estimator::WeightedManhattan { weight: 0.5 };
        assert_eq!(w.evaluate(a, b), 2.0);
    }

    #[test]
    fn f32_evaluation_matches_f64() {
        let to = Point::new(10.0, 20.0);
        let a = Estimator::Manhattan.evaluate_f32(1.0, 2.0, to);
        let b = Estimator::Manhattan.evaluate(Point::new(1.0, 2.0), to);
        assert!((a - b).abs() < 1e-6);
    }
}

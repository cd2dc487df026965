//! The algebraic join-cost function `F(B1, B2, B3)` of Section 4.
//!
//! "The value of this function depends on the join strategy that is chosen
//! to carry out the join. The function uses the input parameters to choose
//! the cheapest join strategy from among four viable choices."
//!
//! For the Table 4B example the paper *fixes* nested-loop:
//! `F(B1, B2, B3) = B1·t_read + (B1·B2)·t_read + B3·t_write`; the chooser
//! here implements the full optimizer.

use crate::params::ModelParams;
use atis_storage::JoinStrategy;

/// Algebraic cost of one strategy for a join of `b1` outer blocks
/// (holding `outer_tuples` tuples) against `b2` inner blocks producing
/// `b3` result blocks.
pub fn algebraic_join_cost(
    strategy: JoinStrategy,
    b1: usize,
    b2: usize,
    b3: usize,
    outer_tuples: f64,
    p: &ModelParams,
) -> f64 {
    let (b1, b2, b3) = (b1.max(1) as f64, b2.max(1) as f64, b3 as f64);
    let log2 = |b: f64| b.log2().ceil().max(0.0);
    match strategy {
        JoinStrategy::NestedLoop => (b1 + b1 * b2) * p.io.t_read + b3 * p.io.t_write,
        JoinStrategy::Hash => (b1 + b2) * p.io.t_read + b3 * p.io.t_write,
        JoinStrategy::SortMerge => {
            (b1 * log2(b1) + b2 * log2(b2)) * p.io.t_update
                + (b1 + b2) * p.io.t_read
                + b3 * p.io.t_write
        }
        JoinStrategy::PrimaryKey => outer_tuples.max(1.0) * p.io.t_read + b3 * p.io.t_write,
    }
}

/// `F(B1, B2, B3)` with the optimizer enabled: the cheapest of the four
/// strategies and its cost.
#[expect(
    clippy::expect_used,
    reason = "JoinStrategy::ALL is a non-empty constant"
)]
pub fn cheapest_join(
    b1: usize,
    b2: usize,
    b3: usize,
    outer_tuples: f64,
    p: &ModelParams,
) -> (JoinStrategy, f64) {
    JoinStrategy::ALL
        .into_iter()
        .map(|s| (s, algebraic_join_cost(s, b1, b2, b3, outer_tuples, p)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four strategies")
}

/// The paper's Section 4.3 worked form: nested-loop `F`.
pub fn nested_loop_join_cost(b1: usize, b2: usize, b3: usize, p: &ModelParams) -> f64 {
    algebraic_join_cost(JoinStrategy::NestedLoop, b1, b2, b3, 0.0, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_loop_matches_section_4_3_form() {
        let p = ModelParams::table_4a();
        // F(1, 28, 1) = 1*0.035 + 28*0.035 + 1*0.05 = 1.065.
        let f = nested_loop_join_cost(1, 28, 1, &p);
        assert!((f - 1.065).abs() < 1e-9);
    }

    #[test]
    fn chooser_prefers_primary_key_for_one_tuple() {
        let p = ModelParams::table_4a();
        let (s, c) = cheapest_join(1, 28, 1, 1.0, &p);
        assert_eq!(s, JoinStrategy::PrimaryKey);
        assert!((c - (0.035 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn chooser_prefers_hash_for_bulk_joins() {
        let p = ModelParams::table_4a();
        // 1000 outer tuples in 4 blocks vs 28 inner blocks: primary key
        // would cost 1000 reads; hash costs 32.
        let (s, _) = cheapest_join(4, 28, 2, 1000.0, &p);
        assert_eq!(s, JoinStrategy::Hash);
    }

    #[test]
    fn sort_merge_reduces_to_merge_for_single_blocks() {
        let p = ModelParams::table_4a();
        let c = algebraic_join_cost(JoinStrategy::SortMerge, 1, 1, 1, 5.0, &p);
        // log2(1) = 0: just (1+1) reads + 1 write.
        assert!((c - (2.0 * 0.035 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn costs_scale_monotonically_with_inner_size() {
        let p = ModelParams::table_4a();
        for s in JoinStrategy::ALL {
            let small = algebraic_join_cost(s, 2, 4, 1, 300.0, &p);
            let large = algebraic_join_cost(s, 2, 64, 1, 300.0, &p);
            assert!(large >= small, "{} not monotone in B2", s.label());
        }
    }
}

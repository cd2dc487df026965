//! An algebraic cost model for A\* **version 1** (separate frontier
//! relation) — the model the paper never derives, but whose behaviour its
//! Figures 10–12 measure. Formalising it explains deviation D4 in
//! EXPERIMENTS.md: under the paper's own Table 4A prices, version 1's
//! per-iteration APPEND/DELETE overhead exceeds its initialisation saving
//! after only a couple of iterations.
//!
//! Structure per iteration `i` (all prices from Table 4A):
//!
//! ```text
//! select   = B_f(i) · t_read              scan the frontier relation
//! delete   = (1 + I_l)·t_update + I_l·t_read   DELETE the selected node
//! close    = (I_l)·t_read + t_update      REPLACE status in the result rel.
//! join     = F(1, B_s, B_join)            fetch u.adjacencyList
//! relax    = |A| · (I_l·t_read)           membership probes
//!          + new·(2·(t_write + I_l·t_update))   APPEND to both relations
//!          + upd·(I_l·t_read + t_update + I_l·t_read + t_update)
//! ```
//!
//! The frontier heap tombstones deletions, so its block count grows with
//! *total appends*, not live size: `B_f(i) = ⌈(1 + new·i) / Bf_r⌉`.

use crate::params::ModelParams;
use atis_storage::JoinPolicy;

/// Average nodes newly discovered per expansion. On a fresh grid interior
/// this is ≈ 2 (of 4 neighbours, ~2 are unseen); it decays as the
/// explored region closes, so ≈ 1 fits whole-run averages.
const NEW_PER_EXPANSION: f64 = 1.0;

/// Average already-known neighbours whose cost improves per expansion.
const IMPROVED_PER_EXPANSION: f64 = 0.5;

/// The version-1 model over a parameter set, pricing its adjacency join
/// under a [`JoinPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct RelationFrontierModel {
    p: ModelParams,
    policy: JoinPolicy,
}

impl RelationFrontierModel {
    /// Builds the model for runs under `policy` (the paper's Table 4B
    /// forces nested-loop, [`JoinPolicy::default`]).
    pub fn new(p: ModelParams, policy: JoinPolicy) -> Self {
        RelationFrontierModel { p, policy }
    }

    /// Initialisation: two relation creations plus the two APPENDs of the
    /// start node — version 1's *cheap* start (no bulk load, no index
    /// build).
    pub fn init_cost(&self) -> f64 {
        let p = &self.p;
        let append = p.io.t_write + p.io.isam_levels as f64 * p.io.t_update;
        2.0 * p.io.t_create + 2.0 * append
    }

    /// Cost of iteration `i` (1-based).
    pub fn iteration_cost(&self, i: u64) -> f64 {
        let p = &self.p;
        let il = p.io.isam_levels as f64;
        let b_join = p.b_join(p.avg_degree);
        // `B_f(i)`: frontier blocks, tombstones included.
        let b_f = ((1.0 + NEW_PER_EXPANSION * i as f64) / p.bf_r() as f64).ceil();
        let select = b_f.max(1.0) * p.io.t_read;
        let delete = (1.0 + il) * p.io.t_update + il * p.io.t_read;
        let close = il * p.io.t_read + p.io.t_update;
        let join = self.policy.choose(1, 1.0, p.b_s(), b_join, &p.io).1;
        let append = p.io.t_write + il * p.io.t_update;
        let probe = il * p.io.t_read;
        let relax = p.avg_degree * probe
            + NEW_PER_EXPANSION * (2.0 * append + probe + p.io.t_read)
            + IMPROVED_PER_EXPANSION * (2.0 * (il * p.io.t_read + p.io.t_update));
        select + delete + close + join + relax
    }

    /// Total predicted cost over a trace's iteration count.
    pub fn total(&self, iterations: u64) -> f64 {
        self.init_cost()
            + (1..=iterations)
                .map(|i| self.iteration_cost(i))
                .sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn table_3(p: &ModelParams) -> Model {
        Model::table_3(p, JoinPolicy::default())
    }

    #[test]
    fn init_is_cheaper_than_the_bulk_load() {
        let p = ModelParams::table_4a();
        let v1 = RelationFrontierModel::new(p, JoinPolicy::default());
        let v2 = table_3(&p);
        assert!(
            v1.init_cost() < v2.total(0),
            "v1 init {} must undercut v2 init {}",
            v1.init_cost(),
            v2.total(0)
        );
    }

    #[test]
    fn per_iteration_is_more_expensive_than_status_frontier() {
        let p = ModelParams::table_4a();
        let v1 = RelationFrontierModel::new(p, JoinPolicy::default());
        let v2 = table_3(&p);
        // Even at iteration 1 (smallest frontier), APPEND/DELETE overhead
        // makes v1's step pricier.
        assert!(v1.iteration_cost(1) > v2.total(1) - v2.total(0));
    }

    #[test]
    fn crossover_happens_within_a_handful_of_iterations() {
        // The D4 analysis: v1's total overtakes v2's within single-digit
        // iterations under Table 4A prices — which is why the paper's
        // measured v1 win at ~38 iterations cannot be reproduced from its
        // own cost model.
        let p = ModelParams::table_4a();
        let v1 = RelationFrontierModel::new(p, JoinPolicy::default());
        let v2 = table_3(&p);
        let crossover = (1..=1000u64)
            .find(|&t| v1.total(t) > v2.total(t))
            .expect("v1 must fall behind");
        assert!(crossover <= 10, "crossover at iteration {crossover}");
    }

    #[test]
    fn model_tracks_the_physical_engine() {
        use atis_algorithms::{AStarVersion, Algorithm, Database};
        use atis_graph::{CostModel, Grid, QueryKind};
        use atis_storage::CostParams;
        // Whole-run agreement with the metered v1 run within 25% on the
        // paper's 20x20 and 30x30 diagonal workloads.
        for k in [20usize, 30] {
            let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 1993).unwrap();
            let db = Database::open(grid.graph()).unwrap();
            let (s, d) = grid.query_pair(QueryKind::Diagonal);
            let t = db.run(Algorithm::AStar(AStarVersion::V1), s, d).unwrap();
            let measured = t.cost_units(&CostParams::default());
            let model = RelationFrontierModel::new(ModelParams::for_grid(k), db.join_policy());
            let predicted = model.total(t.iterations);
            let err = (predicted - measured).abs() / measured;
            assert!(
                err < 0.25,
                "k={k}: predicted {predicted:.1} vs measured {measured:.1} ({:.0}%)",
                err * 100.0
            );
        }
    }

    #[test]
    fn frontier_growth_raises_late_iterations() {
        // The tombstoned frontier grows by one block every `Bf_r` appends.
        let m = RelationFrontierModel::new(ModelParams::table_4a(), JoinPolicy::default());
        assert!(m.iteration_cost(800) > m.iteration_cost(1));
    }
}

//! Table 3 — the algebraic cost of Dijkstra and A\* (version 3).
//!
//! Both algorithms share the per-iteration structure; "The main difference
//! appears in the selection of the minimum-cost node to expand at each
//! iteration" — a CPU-side difference the I/O model does not price. With
//! exactly one current node per iteration, the join selectivity is
//! `JS = |A| / |S|` and `B_join = ⌈|A| / Bf_rs⌉` (Section 4.2).
//!
//! ```text
//! init:  C1..C4 as in Table 2
//! per iteration:
//!   select   = B_r·t_read                 scan R for the min open node
//!   mark     = (I_l + 1)·t_update         move it to the exploredSet
//!   join     = F(B_c=1, B_s, B_join)      fetch u.adjacencyList
//!   relax    = (I_l + |A|)·t_update       REPLACE each neighbour
//! ```
//!
//! "Since it is difficult to algebraically predict the number of
//! iterations, we extract it from the trace of the actual execution" —
//! [`BestFirstModel::total`] therefore takes the iteration count as input,
//! exactly like the paper's simulation.

use crate::join_cost;
use crate::params::ModelParams;
use atis_storage::JoinStrategy;

/// One named step of an algebraic cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStep {
    /// Step label (e.g. `"C5: select min from frontier (scan R)"`).
    pub label: String,
    /// Cost of one execution of the step, in Table 4A units.
    pub cost: f64,
    /// Whether the step runs once per iteration (vs once per run).
    pub per_iteration: bool,
}

impl ModelStep {
    fn new(label: &str, cost: f64, per_iteration: bool) -> ModelStep {
        ModelStep {
            label: label.to_string(),
            cost,
            per_iteration,
        }
    }
}

/// Table 3 instantiated over a parameter set. Covers Dijkstra and the
/// status-frontier A\* versions (2 and 3), which share the I/O structure.
#[derive(Debug, Clone, Copy)]
pub struct BestFirstModel {
    p: ModelParams,
    /// Join strategy used for the adjacency join (`None` = optimizer).
    pub forced_join: Option<JoinStrategy>,
}

impl BestFirstModel {
    /// Builds the model with the paper's forced nested-loop join.
    pub fn new(p: ModelParams) -> Self {
        BestFirstModel {
            p,
            forced_join: Some(JoinStrategy::NestedLoop),
        }
    }

    /// Lets the optimizer pick the join strategy.
    pub fn with_optimizer(mut self) -> Self {
        self.forced_join = None;
        self
    }

    /// `C1 + C2 + C3 + C4` — identical to Table 2's initialisation.
    pub fn init_cost(&self) -> f64 {
        crate::iterative_model::IterativeModel::new(self.p).init_cost()
    }

    /// Per-iteration selection cost (the scan of `R`).
    pub fn select_cost(&self) -> f64 {
        self.p.b_r() as f64 * self.p.io.t_read
    }

    /// Per-iteration join cost (`F` over one current node).
    pub fn join_step_cost(&self) -> f64 {
        let p = &self.p;
        let b_join = p.b_join(p.avg_degree);
        match self.forced_join {
            Some(s) => join_cost::algebraic_join_cost(s, 1, p.b_s(), b_join, 1.0, p),
            None => join_cost::cheapest_join(1, p.b_s(), b_join, 1.0, p).1,
        }
    }

    /// Per-iteration update cost: marking the selected node plus relaxing
    /// its `|A|` neighbours (`(I_l + 1)·t_update + (I_l + |A|)·t_update`).
    pub fn update_step_cost(&self) -> f64 {
        let p = &self.p;
        (p.io.isam_levels as f64 + 1.0) * p.io.t_update
            + (p.io.isam_levels as f64 + p.avg_degree) * p.io.t_update
    }

    /// Per-iteration cost `Γ`.
    pub fn iteration_cost(&self) -> f64 {
        self.select_cost() + self.join_step_cost() + self.update_step_cost()
    }

    /// The model as named steps — Table 3's decomposition, with the
    /// initialisation steps shared with Table 2. Per-iteration steps carry
    /// `per_iteration = true`; summing init steps plus `iterations ×` the
    /// per-iteration steps reproduces [`BestFirstModel::total`].
    pub fn steps(&self) -> Vec<ModelStep> {
        let p = &self.p;
        let b_r = p.b_r() as f64;
        let b_s = p.b_s() as f64;
        vec![
            ModelStep::new("C1: create R", p.io.t_create, false),
            ModelStep::new(
                "C2: initialise R from S",
                b_s * p.io.t_read + b_r * p.io.t_write,
                false,
            ),
            ModelStep::new(
                "C3: index & sort R",
                2.0 * (b_r * b_r.log2().max(0.0) + b_r) * p.io.t_update,
                false,
            ),
            ModelStep::new(
                "C4: mark start node",
                (p.io.isam_levels as f64 + p.selection_cardinality as f64) * p.io.t_update
                    + b_r * p.io.t_read,
                false,
            ),
            ModelStep::new(
                "C5: select min from frontier (scan R)",
                self.select_cost(),
                true,
            ),
            ModelStep::new(
                "C6: move u to exploredSet",
                (p.io.isam_levels as f64 + 1.0) * p.io.t_update,
                true,
            ),
            ModelStep::new(
                "C7: fetch u.adjacencyList (join)",
                self.join_step_cost(),
                true,
            ),
            ModelStep::new(
                "C8: relax |A| neighbours (REPLACE)",
                (p.io.isam_levels as f64 + p.avg_degree) * p.io.t_update,
                true,
            ),
        ]
    }

    /// Total predicted cost for an iteration count taken from an execution
    /// trace.
    pub fn total(&self, iterations: u64) -> f64 {
        self.init_cost() + iterations as f64 * self.iteration_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_cost_matches_hand_computation() {
        // select .14 + mark .34 + join 1.065 + relax 7*.085 = 2.14.
        let m = BestFirstModel::new(ModelParams::table_4a());
        assert!(
            (m.iteration_cost() - 2.14).abs() < 1e-9,
            "{}",
            m.iteration_cost()
        );
    }

    #[test]
    fn reproduces_table_4b_dijkstra_row() {
        // Paper: 1055.6 / 1656.8 / 1941.2 at 488 / 767 / 899 iterations.
        let m = BestFirstModel::new(ModelParams::table_4a());
        for (iters, expect) in [(488u64, 1055.6), (767, 1656.8), (899, 1941.2)] {
            let t = m.total(iters);
            let err = (t - expect).abs() / expect;
            assert!(
                err < 0.02,
                "{iters} iterations: predicted {t}, paper {expect}"
            );
        }
    }

    #[test]
    fn reproduces_table_4b_astar_row() {
        // Paper: 66.7 / 881.2 / 1809.8 at 29 / 407 / 838 iterations.
        let m = BestFirstModel::new(ModelParams::table_4a());
        for (iters, expect) in [(29u64, 66.7), (407, 881.2), (838, 1809.8)] {
            let t = m.total(iters);
            let err = (t - expect).abs() / expect;
            assert!(
                err < 0.02,
                "{iters} iterations: predicted {t}, paper {expect}"
            );
        }
    }

    #[test]
    fn optimizer_cuts_the_join_cost_dramatically() {
        // With one current node, the primary-key join replaces a 29-block
        // nested loop with a single bucket probe.
        let p = ModelParams::table_4a();
        let forced = BestFirstModel::new(p);
        let opt = BestFirstModel::new(p).with_optimizer();
        assert!(opt.iteration_cost() < forced.iteration_cost() - 0.9);
    }

    #[test]
    fn steps_sum_to_the_closed_form() {
        let m = BestFirstModel::new(ModelParams::table_4a());
        for iters in [0u64, 1, 29, 899] {
            let a = m.total(iters);
            let b: f64 = m
                .steps()
                .iter()
                .map(|s| s.cost * if s.per_iteration { iters as f64 } else { 1.0 })
                .sum();
            assert!((a - b).abs() < 1e-9, "{iters}: {a} vs {b}");
        }
        // The decomposition has 4 init steps and 4 per-iteration steps.
        let steps = m.steps();
        assert_eq!(steps.iter().filter(|s| !s.per_iteration).count(), 4);
        assert_eq!(steps.iter().filter(|s| s.per_iteration).count(), 4);
    }

    #[test]
    fn init_matches_iterative_init() {
        let p = ModelParams::table_4a();
        let bf = BestFirstModel::new(p);
        let it = crate::iterative_model::IterativeModel::new(p);
        assert_eq!(bf.init_cost(), it.init_cost());
    }
}

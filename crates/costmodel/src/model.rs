//! Tables 2 and 3 — the algebraic cost of the iterative algorithm and of
//! Dijkstra / A\* (version 3) — as one step table.
//!
//! Both tables share the initialisation `C1..C4` and then repeat a fixed
//! set of steps once per iteration; each step is charged to the part of a
//! run's metered I/O (`StepIo` in `atis-obs`) that carries it:
//!
//! ```text
//! init (both tables, once per run):
//!   C1 = I                                   create R
//!   C2 = B_s·t_read + B_r·t_write            initialise R with all nodes
//!   C3 = 2(B_r·log B_r + B_r)·t_update       index & sort R by node id
//!   C4 = (I_l + S_r)·t_update + B_r·t_read   mark start current, count
//! Table 2, per iteration (current set of |C| nodes):
//!   C5 = B_r·t_read                          select:  fetch current nodes
//!   C6 = F(B_c, B_s, B_join)                 join:    neighbours of C
//!   C7 = 2·B_r·t_update                      update:  relax + flip statuses
//!   C8 = B_r·t_read                          bookkeeping: count current
//! Table 3, per iteration (one current node):
//!   C5 = B_r·t_read                          select:  scan R for the min
//!   C6 = (I_l + 1)·t_update                  update:  move u to exploredSet
//!   C7 = F(1, B_s, B_join)                   join:    fetch u.adjacencyList
//!   C8 = (I_l + |A|)·t_update                update:  relax |A| neighbours
//! Total = Σ init + iterations · Σ per-iteration
//! ```
//!
//! `F` is the run's [`JoinPolicy`] priced by [`JoinPolicy::choose`], so a
//! model built for a database's own policy prices the joins that database
//! runs. "Since it is difficult to algebraically predict the number of
//! iterations, we extract it from the trace of the actual execution" —
//! [`Model::total`] takes the iteration count as input, exactly like the
//! paper's simulation.

use crate::params::ModelParams;
use atis_storage::{CostParams, JoinPolicy};

/// The five parts a run's metered I/O is attributed to (the fields of
/// `atis-obs`'s `StepIo`), and so the parts a model step is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Relation creation, bulk load, index build, start-node marking.
    Init,
    /// Frontier selection scans.
    Select,
    /// Adjacency joins.
    Join,
    /// State updates: marking and relaxing.
    Update,
    /// Remaining bookkeeping (current-count scans, path extraction).
    Bookkeeping,
}

impl Part {
    /// All five parts, in `StepIo` field order.
    pub const ALL: [Part; 5] = [
        Part::Init,
        Part::Select,
        Part::Join,
        Part::Update,
        Part::Bookkeeping,
    ];

    /// The part's name, as `StepIo` spells its field.
    pub fn label(self) -> &'static str {
        match self {
            Part::Init => "init",
            Part::Select => "select",
            Part::Join => "join",
            Part::Update => "update",
            Part::Bookkeeping => "bookkeeping",
        }
    }
}

/// One row of Table 2 or 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// The paper's step name (`"C1"` .. `"C8"`).
    pub label: &'static str,
    /// The part of a run's I/O the step is charged to.
    pub part: Part,
    /// Whether the step runs once per iteration (vs once per run).
    pub per_iteration: bool,
    /// Cost of one execution of the step, in Table 4A units.
    pub cost: f64,
}

/// A cost model: its steps, and the unit costs they are priced at.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// The steps, in the paper's order.
    pub steps: Vec<Step>,
    /// The unit costs the steps are priced at (measured I/O compared
    /// against the model is priced at the same).
    pub io: CostParams,
}

impl Model {
    /// Table 2 (the iterative algorithm) for an average current set of
    /// `current_nodes` nodes per iteration (the paper's own estimate is
    /// [`ModelParams::avg_current`]).
    pub fn table_2(p: &ModelParams, policy: JoinPolicy, current_nodes: f64) -> Model {
        let b_r = p.b_r() as f64;
        let b_c = p.b_c(current_nodes);
        let b_join = p.b_join(current_nodes * p.avg_degree);
        let join = policy.choose(b_c, current_nodes, p.b_s(), b_join, &p.io).1;
        Model::with_init(
            p,
            [
                ("C5", Part::Select, b_r * p.io.t_read),
                ("C6", Part::Join, join),
                ("C7", Part::Update, 2.0 * b_r * p.io.t_update),
                ("C8", Part::Bookkeeping, b_r * p.io.t_read),
            ],
        )
    }

    /// Table 3 (Dijkstra and the status-frontier A\* versions, which
    /// share the I/O structure): exactly one current node per iteration,
    /// so the join selectivity is `|A| / |S|` (Section 4.2).
    pub fn table_3(p: &ModelParams, policy: JoinPolicy) -> Model {
        let il = p.io.isam_levels as f64;
        let b_join = p.b_join(p.avg_degree);
        let join = policy.choose(1, 1.0, p.b_s(), b_join, &p.io).1;
        Model::with_init(
            p,
            [
                ("C5", Part::Select, p.b_r() as f64 * p.io.t_read),
                ("C6", Part::Update, (il + 1.0) * p.io.t_update),
                ("C7", Part::Join, join),
                ("C8", Part::Update, (il + p.avg_degree) * p.io.t_update),
            ],
        )
    }

    /// `C1..C4` (shared by both tables, once per run) followed by the
    /// given per-iteration steps.
    fn with_init(p: &ModelParams, per_iteration: [(&'static str, Part, f64); 4]) -> Model {
        let b_r = p.b_r() as f64;
        let b_s = p.b_s() as f64;
        let log_b_r = b_r.log2().max(0.0);
        let il_sr = p.io.isam_levels as f64 + p.selection_cardinality as f64;
        let init = [
            ("C1", Part::Init, p.io.t_create),
            ("C2", Part::Init, b_s * p.io.t_read + b_r * p.io.t_write),
            (
                "C3",
                Part::Init,
                2.0 * (b_r * log_b_r + b_r) * p.io.t_update,
            ),
            ("C4", Part::Init, il_sr * p.io.t_update + b_r * p.io.t_read),
        ];
        let steps = init
            .into_iter()
            .chain(per_iteration)
            .map(|(label, part, cost)| Step {
                label,
                part,
                per_iteration: part != Part::Init,
                cost,
            })
            .collect();
        Model { steps, io: p.io }
    }

    /// Predicted cost of one part over a run of `iterations` iterations.
    pub fn part(&self, part: Part, iterations: u64) -> f64 {
        self.sum(iterations, |s| s.part == part)
    }

    /// Predicted cost of a whole run of `iterations` iterations.
    pub fn total(&self, iterations: u64) -> f64 {
        self.sum(iterations, |_| true)
    }

    fn sum(&self, iterations: u64, pick: impl Fn(&Step) -> bool) -> f64 {
        let mut sums = [0.0; 2]; // [once per run, once per iteration]
        for s in self.steps.iter().filter(|s| pick(s)) {
            sums[usize::from(s.per_iteration)] += s.cost;
        }
        sums[0] + iterations as f64 * sums[1]
    }
}

/// Table 4B, regenerated: estimated costs on the 30×30 grid with 20% edge
/// cost variance under the paper's forced nested-loop join, from Table 6's
/// iteration counts. Rows are (algorithm, [horizontal, semi-diagonal,
/// diagonal]).
pub fn table_4b() -> [(&'static str, [f64; 3]); 3] {
    let p = ModelParams::table_4a();
    let policy = JoinPolicy::default();
    let bf = |iters: u64| Model::table_3(&p, policy).total(iters);
    let it = |iters: u64| Model::table_2(&p, policy, p.avg_current(iters)).total(iters);
    [
        ("Dijkstra", [bf(488), bf(767), bf(899)]),
        ("A* (version 3)", [bf(29), bf(407), bf(838)]),
        ("Iterative", [it(59), it(59), it(59)]),
    ]
}

/// The values Table 4B prints, for comparison in tests and experiment
/// output (same row/column order as [`table_4b`]).
pub const PAPER_TABLE_4B: [(&str, [f64; 3]); 3] = [
    ("Dijkstra", [1055.6, 1656.8, 1941.2]),
    ("A* (version 3)", [66.7, 881.2, 1809.8]),
    ("Iterative", [176.9, 176.9, 176.9]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use atis_storage::JoinStrategy;

    const NESTED_LOOP: JoinPolicy = JoinPolicy::Force(JoinStrategy::NestedLoop);

    /// `Γ`: the cost of one iteration.
    fn iteration_cost(m: &Model) -> f64 {
        m.total(1) - m.total(0)
    }

    #[test]
    fn table_2_init_matches_hand_computation() {
        // Table 4A instance: C1 = 0.5, C2 = 28*.035 + 4*.05 = 1.18,
        // C3 = 2*(4*2+4)*.085 = 2.04, C4 = 4*.085 + 4*.035 = 0.48.
        let m = Model::table_2(&ModelParams::table_4a(), NESTED_LOOP, 1.0);
        assert!((m.part(Part::Init, 0) - 4.2).abs() < 1e-9);
        assert!((m.total(0) - 4.2).abs() < 1e-9);
    }

    #[test]
    fn table_2_iteration_cost_matches_hand_computation() {
        // 15.25 current nodes -> B_c = 1, B_join = 1:
        // C5 = .14, C6 = 1.065, C7 = .68, C8 = .14 -> 2.025.
        let m = Model::table_2(&ModelParams::table_4a(), NESTED_LOOP, 900.0 / 59.0);
        assert!((iteration_cost(&m) - 2.025).abs() < 1e-9);
    }

    #[test]
    fn table_2_total_is_close_to_table_4b_shape() {
        // The paper's Table 4B prints 176.9 for the iterative algorithm at
        // 59 iterations; the printed value implies a larger current-set
        // footprint (B_c = 2) than the no-backtracking estimate. Our
        // formula gives ~124 and our physical engine measures ~115 — the
        // model must stay in that envelope.
        let p = ModelParams::table_4a();
        let t = Model::table_2(&p, NESTED_LOOP, p.avg_current(59)).total(59);
        assert!((110.0..140.0).contains(&t), "{t}");
    }

    #[test]
    fn table_2_optimizer_never_costs_more_than_forced_nested_loop() {
        let p = ModelParams::table_4a();
        for current in [1.0, 15.0, 100.0, 500.0] {
            let forced = Model::table_2(&p, NESTED_LOOP, current);
            let opt = Model::table_2(&p, JoinPolicy::CostBased, current);
            assert!(iteration_cost(&opt) <= iteration_cost(&forced) + 1e-12);
        }
    }

    #[test]
    fn table_2_iteration_cost_grows_with_current_set() {
        let p = ModelParams::table_4a();
        assert!(
            iteration_cost(&Model::table_2(&p, NESTED_LOOP, 600.0))
                > iteration_cost(&Model::table_2(&p, NESTED_LOOP, 10.0))
        );
    }

    #[test]
    fn table_3_iteration_cost_matches_hand_computation() {
        // select .14 + mark .34 + join 1.065 + relax 7*.085 = 2.14.
        let m = Model::table_3(&ModelParams::table_4a(), NESTED_LOOP);
        assert!(
            (iteration_cost(&m) - 2.14).abs() < 1e-9,
            "{}",
            iteration_cost(&m)
        );
    }

    #[test]
    fn table_3_optimizer_cuts_the_join_cost_dramatically() {
        // With one current node, the primary-key join replaces a 29-block
        // nested loop with a single bucket probe.
        let p = ModelParams::table_4a();
        let forced = Model::table_3(&p, NESTED_LOOP);
        let opt = Model::table_3(&p, JoinPolicy::CostBased);
        assert!(iteration_cost(&opt) < iteration_cost(&forced) - 0.9);
    }

    #[test]
    fn parts_partition_the_total_and_tag_each_step_once() {
        let p = ModelParams::table_4a();
        for m in [
            Model::table_2(&p, NESTED_LOOP, p.avg_current(59)),
            Model::table_3(&p, JoinPolicy::CostBased),
        ] {
            for iters in [0u64, 1, 59, 899] {
                let parts: f64 = Part::ALL.iter().map(|&part| m.part(part, iters)).sum();
                assert!((parts - m.total(iters)).abs() < 1e-9, "{iters}");
            }
            assert_eq!(m.steps.iter().filter(|s| !s.per_iteration).count(), 4);
            assert_eq!(m.steps.iter().filter(|s| s.per_iteration).count(), 4);
        }
    }

    #[test]
    fn table_4b_best_first_rows_match_the_paper_within_2_percent() {
        let ours = table_4b();
        for (row, (label, cells)) in ours.iter().enumerate().take(2) {
            let (plabel, pcells) = PAPER_TABLE_4B[row];
            assert_eq!(*label, plabel);
            for (c, &cost) in cells.iter().enumerate() {
                let err = (cost - pcells[c]).abs() / pcells[c];
                assert!(
                    err < 0.02,
                    "{label} col {c}: predicted {cost:.1}, paper {:.1}",
                    pcells[c]
                );
            }
        }
    }

    #[test]
    fn table_4b_iterative_row_is_below_the_papers_print() {
        // The paper's 176.9 implies a 2-block current set; the
        // no-backtracking estimate (and our physical engine) land near
        // 115-125. Assert the documented envelope and the relative
        // ordering that drives every conclusion: Iterative far below
        // Dijkstra/A* on the diagonal.
        let ours = table_4b();
        let iterative = ours[2].1[2];
        assert!((110.0..180.0).contains(&iterative), "{iterative}");
        assert!(iterative < ours[0].1[2] / 5.0);
    }

    #[test]
    fn predictions_scale_linearly_with_iterations() {
        let m = Model::table_3(&ModelParams::table_4a(), NESTED_LOOP);
        let (a, b, c) = (m.total(100), m.total(200), m.total(300));
        assert!(((b - a) - (c - b)).abs() < 1e-9);
    }
}

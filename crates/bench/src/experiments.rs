//! The drivers no counter row can hold: Figure 8's map, and the two
//! ablations whose point is wall-clock time (all-pairs closure against
//! one pair, in-memory baselines against the metered engine). Their
//! timings differ from run to run, so EXPERIMENTS.md quotes them as
//! wall-clock and no test pins them. The paper's tables and every other
//! validation, ablation and extension are rows of [`crate::studies`]
//! rendered by [`crate::ablations`].
//!
//! Each driver returns an [`ExperimentOutput`]: rendered markdown of *our
//! measured values*. "Execution time" follows the paper's convention:
//! simulated I/O cost in Table 4A units (seed [`PAPER_SEED`]).

use crate::table::Table;
use atis_algorithms::{memory, AStarVersion, Algorithm, Database, Estimator};
use atis_core::render_map;
use atis_graph::{CostModel, Grid, Minneapolis, NodeId, QueryKind};
use atis_storage::CostParams;
use std::fmt;
use std::time::Instant;

/// Seed used for every canonical experiment (the paper's publication
/// year). Results are deterministic given this seed; see EXPERIMENTS.md
/// for sensitivity notes.
pub const PAPER_SEED: u64 = 1993;

/// A rendered experiment: an id (paper table/figure), a description, and
/// one or more titled sections of markdown.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Paper artifact id, e.g. `"Figure 5 / Table 5"`.
    pub id: String,
    /// One-line description of the workload.
    pub description: String,
    /// Titled markdown sections.
    pub sections: Vec<(String, String)>,
}

impl fmt::Display for ExperimentOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}\n", self.id, self.description)?;
        for (title, body) in &self.sections {
            writeln!(f, "### {title}\n\n{body}")?;
        }
        Ok(())
    }
}

/// One measured run.
#[derive(Debug, Clone)]
struct Run {
    iterations: u64,
    cost: f64,
    wall_ms: f64,
}

fn run(db: &Database, alg: Algorithm, s: NodeId, d: NodeId) -> Run {
    let t = db.run(alg, s, d).expect("experiment endpoints are valid");
    Run {
        iterations: t.iterations,
        cost: t.cost_units(&CostParams::default()),
        wall_ms: t.wall.as_secs_f64() * 1e3,
    }
}

fn grid_db(k: usize, model: CostModel) -> (Grid, Database) {
    let grid = Grid::new(k, model, PAPER_SEED).expect("k >= 2");
    let db = Database::open(grid.graph()).expect("grids fit the engine");
    (grid, db)
}

/// What `f` returns, and its wall time in milliseconds, to three
/// decimals.
fn timed<T>(f: impl FnOnce() -> T) -> (T, String) {
    let start = Instant::now();
    let value = f();
    (value, format!("{:.3}", start.elapsed().as_secs_f64() * 1e3))
}

/// A cost in Table 4A units, to one decimal.
pub(crate) fn fmt_cost(c: f64) -> String {
    format!("{c:.1}")
}

/// Figure 8 — the (synthetic) Minneapolis road map with landmarks A–G.
pub fn fig8_map() -> ExperimentOutput {
    let m = Minneapolis::paper();
    let map = render_map(m.graph(), None, m.landmarks(), 78, 36);
    let legend = format!(
        "nodes: {}   directed edges: {}   landmarks: {}\n",
        m.graph().node_count(),
        m.graph().edge_count(),
        m.landmarks().iter().map(|(c, _)| *c).collect::<String>(),
    );
    ExperimentOutput {
        id: "Figure 8".into(),
        description: "synthetic Minneapolis road map (see DESIGN.md for the substitution)".into(),
        sections: vec![(
            "ASCII render (downtown rotated core, lakes lower-left, river upper-right)".into(),
            format!("{legend}```text\n{map}```\n"),
        )],
    }
}

/// Ablation — the paper's Section 1.2 complaint, measured: transitive
/// closure computes "many more paths beyond the single pair path that is
/// of interest to ATIS".
pub fn ablation_allpairs() -> ExperimentOutput {
    use atis_algorithms::closure;
    let (grid, db) = grid_db(15, CostModel::TWENTY_PERCENT);
    let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
    let n = grid.graph().node_count();
    let mut t = Table::new(vec!["Method", "Paths computed", "Wall time (ms)", "Scope"]);

    let (fw, fw_ms) = timed(|| closure::floyd_warshall(grid.graph()));
    let finite = fw.iter().filter(|c| c.is_finite()).count();
    t.push_row(vec![
        "Floyd-Warshall (cost closure)".to_string(),
        finite.to_string(),
        fw_ms,
        format!("all {n}x{n} pairs"),
    ]);

    let (w, w_ms) = timed(|| closure::warren_closure(grid.graph()));
    t.push_row(vec![
        "Warren's (boolean closure)".to_string(),
        w.count_ones().to_string(),
        w_ms,
        "reachability only".to_string(),
    ]);

    let (ic, ic_ms) = timed(|| closure::IntervalClosure::build(grid.graph()));
    t.push_row(vec![
        "spanning-tree/interval closure".to_string(),
        format!("{} intervals", ic.stored_intervals()),
        ic_ms,
        "compressed reachability".to_string(),
    ]);

    let (sp, sp_ms) = timed(|| memory::dijkstra_pair(grid.graph(), s, d).expect("connected"));
    t.push_row(vec![
        "single-pair Dijkstra".to_string(),
        "1".to_string(),
        sp_ms,
        format!("one pair, cost {:.2}", sp.cost),
    ]);

    let astar = run(&db, Algorithm::AStar(AStarVersion::V3), s, d);
    t.push_row(vec![
        "single-pair A* v3 (DB-resident)".to_string(),
        "1".to_string(),
        format!("{:.3}", astar.wall_ms),
        format!("{} expansions", astar.iterations),
    ]);

    ExperimentOutput {
        id: "Ablation: all-pairs vs single-pair".into(),
        description:
            "transitive closure computes every path; ATIS needs one (15x15 grid, 20% variance)"
                .into(),
        sections: vec![("Work comparison".into(), t.to_string())],
    }
}

/// Ablation — in-memory references vs the database-resident engine: the
/// 1993 premise that maps outgrow memory priced against today's baseline.
pub fn ablation_memory_vs_db() -> ExperimentOutput {
    let (grid, db) = grid_db(30, CostModel::TWENTY_PERCENT);
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let mut t = Table::new(vec![
        "Implementation",
        "Wall time (ms)",
        "Cost units (simulated I/O)",
    ]);
    let (mem, mem_ms) = timed(|| memory::dijkstra_pair(grid.graph(), s, d).expect("connected"));
    t.push_row(vec![
        "in-memory Dijkstra (binary heap)".to_string(),
        mem_ms,
        "-".into(),
    ]);
    let ((mem_astar, _), astar_ms) =
        timed(|| memory::astar_pair(grid.graph(), s, d, Estimator::Manhattan));
    assert!((mem_astar.expect("connected").cost - mem.cost).abs() < 1e-6);
    t.push_row(vec![
        "in-memory A* (Manhattan)".to_string(),
        astar_ms,
        "-".into(),
    ]);
    let (bi, bi_ms) = timed(|| atis_algorithms::bidirectional_dijkstra(grid.graph(), s, d));
    let expansions = bi.expansions();
    assert!((bi.path.expect("connected").cost - mem.cost).abs() < 1e-6);
    t.push_row(vec![
        format!("in-memory bidirectional Dijkstra ({expansions} expansions)"),
        bi_ms,
        "-".into(),
    ]);
    for alg in [Algorithm::Dijkstra, Algorithm::AStar(AStarVersion::V3)] {
        let r = run(&db, alg, s, d);
        t.push_row(vec![
            format!("DB-resident {}", alg.label()),
            format!("{:.3}", r.wall_ms),
            fmt_cost(r.cost),
        ]);
    }
    ExperimentOutput {
        id: "Ablation: memory vs database".into(),
        description: "in-memory baselines vs the metered engine (30x30, diagonal, 20% variance)"
            .into(),
        sections: vec![("Wall clock and simulated I/O".into(), t.to_string())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_renders_landmarks() {
        let out = fig8_map();
        let body = &out.sections[0].1;
        for c in ['A', 'B', 'C', 'D', 'E', 'F', 'G'] {
            assert!(body.contains(c), "missing landmark {c}");
        }
    }
}

//! The database-resident iterative (breadth-first) algorithm (Figure 1,
//! costed by Table 2).
//!
//! Each round is set-oriented: fetch *all* current nodes (a scan of `R`),
//! join them with `S` to get every neighbour at once, relax with a
//! full-relation REPLACE pass, flip statuses with a second pass, and count
//! the new current set. "The iterative algorithm cannot be terminated
//! before exploring the entire graph" — it runs until the frontier
//! empties, which is why its iteration count is insensitive to path length
//! (Tables 5–6) but its per-round cost is high.
//!
//! Reopening is emergent: a closed node whose cost improves in a later
//! round becomes current again ("the possibility of reopening a node and
//! revising the path", Section 5.1.3) — this is what makes the skewed cost
//! model more expensive for BFS despite BFS ignoring edge costs during
//! scheduling.

use crate::database::{Budgets, Database};
use crate::error::AlgorithmError;
use crate::observe::RunObserver;
use crate::trace::RunTrace;
use atis_graph::{NodeId, Path};
use atis_obs::{IterationPhase, StepIo};
use atis_storage::{join_adjacency, IoStats, JoinStrategy, NodeStatus, NO_PRED};
use std::collections::HashMap;
#[expect(
    clippy::disallowed_types,
    reason = "wall_ms is trace reporting metadata, never an algorithm input"
)]
use std::time::Instant;

/// Runs the iterative algorithm from `s` to `d` under `budgets`.
pub fn run(
    db: &Database,
    s: NodeId,
    d: NodeId,
    budgets: Budgets,
) -> Result<RunTrace, AlgorithmError> {
    #[expect(
        clippy::disallowed_types,
        reason = "wall_ms is trace reporting metadata, never an algorithm input"
    )]
    let wall_start = Instant::now();
    let mut io = IoStats::new();
    let mut steps = StepIo::default();
    let mut observer = RunObserver::new(db, "Iterative");
    observer.run_started(s, d);
    let s_id = s.0;
    let d_id = d.0;

    // C1 + C2 + C3.
    let mut r = db.create_node_relation(&mut io)?;
    let meter = db.budget_meter_with(budgets);

    // C4: mark the start node current and count current nodes.
    r.replace(s_id, &mut io, |t| {
        t.status = NodeStatus::Current;
        t.path_cost = 0.0;
    })?;
    let mut current_count = r.count_status(NodeStatus::Current, &mut io)?;
    steps.init = io;
    let mut frontier_peak = current_count as u64;
    observer.span(
        IterationPhase::Init,
        0,
        None,
        current_count as u64,
        None,
        &io,
    );

    let mut iterations = 0u64;
    let mut expanded = 0u64;
    let mut reopened = 0u64;
    let mut order = Vec::new();
    let mut join_strategy: Option<JoinStrategy> = None;

    while current_count > 0 {
        iterations += 1;
        meter.check(iterations, &io)?;

        // Step 5: fetch all current nodes (scan of R).
        let mark = io;
        let current = r.fetch_status(NodeStatus::Current, &mut io)?;
        steps.select += io.since(&mark);
        expanded += current.len() as u64;
        order.extend(current.iter().map(|(id, _)| NodeId(*id)));

        // Step 6: join to get the neighbours of all current nodes.
        let mark = io;
        let (joined, strategy) =
            join_adjacency(&current, db.edges(), db.join_policy(), db.params(), &mut io)?;
        steps.join += io.since(&mark);
        join_strategy = Some(strategy);

        // Best candidate per neighbour across all current nodes.
        let cost_of: HashMap<u32, f32> = current.iter().map(|(id, t)| (*id, t.path_cost)).collect();
        let mut candidates: HashMap<u32, (f32, u32)> = HashMap::new();
        for (from, e) in &joined {
            let nc = cost_of[from] + e.cost as f32;
            let entry = candidates.entry(e.end).or_insert((f32::INFINITY, NO_PRED));
            if nc < entry.0 {
                *entry = (nc, *from);
            }
        }

        // Step 7, pass 1: set-oriented relax (REPLACE ... WHERE improved).
        let mark = io;
        r.rewrite(&mut io, |id, t| {
            if let Some(&(nc, pred)) = candidates.get(&id) {
                if nc < t.path_cost {
                    if t.status == NodeStatus::Closed {
                        reopened += 1;
                    }
                    t.path_cost = nc;
                    t.path = pred;
                    t.status = NodeStatus::Open; // next round's frontier
                    return true;
                }
            }
            false
        })?;

        // Step 7, pass 2: flip statuses (current -> closed, open -> current).
        r.rewrite(&mut io, |_, t| match t.status {
            NodeStatus::Current => {
                t.status = NodeStatus::Closed;
                true
            }
            NodeStatus::Open => {
                t.status = NodeStatus::Current;
                true
            }
            _ => false,
        })?;
        steps.update += io.since(&mark);

        // Step 8: scan R to count the current nodes.
        let mark = io;
        current_count = r.count_status(NodeStatus::Current, &mut io)?;
        steps.bookkeeping += io.since(&mark);
        frontier_peak = frontier_peak.max(current_count as u64);
        // The iterative algorithm expands whole levels, so no single node
        // is "selected"; the frontier is the next round's current set.
        observer.span(
            IterationPhase::Search,
            iterations,
            None,
            current_count as u64,
            join_strategy,
            &io,
        );
    }

    let dt = r.peek(d_id)?;
    let path = if dt.path_cost.is_finite() {
        Path::from_predecessors(s, d, dt.path_cost as f64, &r.predecessors()?)
    } else {
        None
    };
    observer.finished(iterations, path.is_some(), 0, &io, io.cost(db.params()));

    Ok(RunTrace {
        algorithm: "Iterative".to_string(),
        iterations,
        expanded,
        reopened,
        io,
        join_strategy,
        path,
        wall: wall_start.elapsed(),
        expansion_order: order,
        steps,
        frontier_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Algorithm;
    use crate::memory;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid, QueryKind};

    #[test]
    fn finds_shortest_paths_like_the_oracle() {
        let grid = Grid::new(7, CostModel::TWENTY_PERCENT, 17).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        for kind in [
            QueryKind::Horizontal,
            QueryKind::Diagonal,
            QueryKind::Random,
        ] {
            let (s, d) = grid.query_pair(kind);
            let t = db.run(Algorithm::Iterative, s, d).unwrap();
            let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
            assert!((t.path_cost() - oracle.cost).abs() < 1e-3);
            t.path.unwrap().validate(grid.graph()).unwrap();
        }
    }

    #[test]
    fn iteration_count_is_insensitive_to_path_length() {
        // Table 6: the iterative algorithm performs the same number of
        // iterations for every query pair.
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let counts: Vec<u64> = QueryKind::TABLE
            .iter()
            .map(|&k| {
                let (s, d) = grid.query_pair(k);
                db.run(Algorithm::Iterative, s, d).unwrap().iterations
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn rounds_match_table5_formula() {
        // Table 5: 19 / 39 / 59 rounds for 10x10 / 20x20 / 30x30 grids
        // under 20% variance = 2(k-1)+1 (hop eccentricity + the final
        // empty-producing round).
        for (k, expect) in [(10usize, 19u64), (20, 39)] {
            let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 1993).unwrap();
            let db = Database::open(grid.graph()).unwrap();
            let (s, d) = grid.query_pair(QueryKind::Diagonal);
            let t = db.run(Algorithm::Iterative, s, d).unwrap();
            assert_eq!(t.iterations, expect, "k = {k}");
        }
    }

    #[test]
    fn matches_bellman_ford_round_count() {
        let grid = Grid::new(9, CostModel::TWENTY_PERCENT, 5).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::Iterative, s, d).unwrap();
        let (_, rounds) = memory::bellman_ford_rounds(grid.graph(), s);
        assert_eq!(t.iterations, rounds);
    }

    #[test]
    fn skewed_costs_cause_reopening() {
        // Section 5.1.3 / Table 7: the cheap corridor keeps improving
        // already-closed nodes, so the skewed model costs BFS extra rounds.
        let uniform = Grid::new(10, CostModel::Uniform, 0).unwrap();
        let skewed = Grid::new(10, CostModel::Skewed, 0).unwrap();
        let (s, d) = uniform.query_pair(QueryKind::Diagonal);
        let tu = Database::open(uniform.graph())
            .unwrap()
            .run(Algorithm::Iterative, s, d)
            .unwrap();
        let ts = Database::open(skewed.graph())
            .unwrap()
            .run(Algorithm::Iterative, s, d)
            .unwrap();
        assert_eq!(tu.reopened, 0);
        assert!(ts.reopened > 0, "skewed corridor must reopen nodes");
        assert!(ts.iterations > tu.iterations);
    }

    #[test]
    fn explores_the_whole_reachable_graph() {
        let grid = Grid::new(6, CostModel::Uniform, 0).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Horizontal);
        let t = db.run(Algorithm::Iterative, s, d).unwrap();
        // Every node is expanded at least once.
        assert!(t.expanded >= grid.graph().node_count() as u64 - 1);
    }

    #[test]
    fn unreachable_destination_yields_none() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Iterative, NodeId(0), NodeId(2)).unwrap();
        assert!(t.path.is_none());
    }

    #[test]
    fn source_equals_destination() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Iterative, NodeId(0), NodeId(0)).unwrap();
        let p = t.path.unwrap();
        assert_eq!(p.cost, 0.0);
        // BFS still floods the graph even for the trivial query.
        assert!(t.iterations >= 1);
    }
}

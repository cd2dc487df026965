//! Database-resident Dijkstra (Figure 2).
//!
//! "select u from frontierSet with minimum C(s, u)" — a scan of `R` —
//! then fetch `u.adjacencyList` with a join against `S` and relax each
//! neighbour with a keyed REPLACE. The run "terminates after the iteration
//! which selects destination node d as the best node in the frontierSet"
//! (Lemma 2), which is what lets it beat the iterative algorithm on short
//! paths.
//!
//! Dijkstra is not a loop of its own: [`crate::Algorithm::describe`]
//! says it is the crate's single loop (the crate-private `search`
//! module) with the status-attribute frontier settling one minimum per
//! iteration, a zero estimator and no reopening (Figure 2 checks
//! `not_in(v, frontierSet ∪ exploredSet)`, so closed nodes never
//! re-enter the frontier). Figure 1 is that loop settling every current
//! node. Both run through [`crate::Database::run`].

#[cfg(test)]
mod tests {
    use crate::database::{Algorithm, Database};
    use crate::memory;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid, NodeId, QueryKind};

    #[test]
    fn finds_the_shortest_path_on_a_diamond() {
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 0.1)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Dijkstra, NodeId(0), NodeId(3)).unwrap();
        let p = t.path.unwrap();
        assert!((p.cost - 2.0).abs() < 1e-6);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn matches_oracle_on_variance_grid() {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 11).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        for kind in [
            QueryKind::Horizontal,
            QueryKind::Diagonal,
            QueryKind::Random,
        ] {
            let (s, d) = grid.query_pair(kind);
            let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
            let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
            assert!(
                (t.path_cost() - oracle.cost).abs() < 1e-3,
                "db {} vs oracle {}",
                t.path_cost(),
                oracle.cost
            );
            t.path.unwrap().validate(grid.graph()).unwrap();
        }
    }

    #[test]
    fn never_reopens_closed_nodes() {
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 3).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert_eq!(t.reopened, 0);
    }

    #[test]
    fn expands_almost_all_nodes_for_the_diagonal_query() {
        // Table 5's pattern: n - 1 iterations for the corner-to-corner
        // query (every other node is closer than d).
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert_eq!(t.iterations, 99);
    }

    #[test]
    fn unreachable_destination_yields_no_path() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0), (2, 0, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Dijkstra, NodeId(0), NodeId(2)).unwrap();
        assert!(t.path.is_none());
        assert!(!t.found());
    }

    #[test]
    fn source_equals_destination_is_trivial() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Dijkstra, NodeId(0), NodeId(0)).unwrap();
        assert_eq!(t.iterations, 0);
        assert_eq!(t.path.unwrap().cost, 0.0);
    }

    #[test]
    fn io_grows_with_iterations() {
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 5).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, _) = grid.query_pair(QueryKind::Diagonal);
        let near = db.run(Algorithm::Dijkstra, s, grid.node_at(0, 2)).unwrap();
        let far = db.run(Algorithm::Dijkstra, s, grid.node_at(9, 9)).unwrap();
        assert!(far.iterations > near.iterations);
        assert!(far.io.block_reads > near.io.block_reads);
    }
}

//! Table 4A parameters and the derived quantities of Table 1.

use atis_graph::Graph;
use atis_storage::CostParams;

/// The cost-model parameter set: Table 4A values plus relation sizes, from
/// which the Table 1 derived quantities (blocking factors, block counts)
/// follow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Unit I/O costs and `I_l` (Table 4A).
    pub io: CostParams,
    /// `|S|` — number of edge tuples.
    pub s_tuples: usize,
    /// `|R|` — number of node tuples.
    pub r_tuples: usize,
    /// `T_s` — edge tuple size in bytes (32).
    pub tuple_s: usize,
    /// `T_r` — node tuple size in bytes (16).
    pub tuple_r: usize,
    /// `B` — block size in bytes (4096).
    pub block: usize,
    /// `|A|` — average adjacency-list length (4 for interior grid nodes).
    pub avg_degree: f64,
    /// `S_r` — selection cardinality of nodes in `R` (1).
    pub selection_cardinality: usize,
}

impl ModelParams {
    /// The exact Table 4A instance: the 30×30 grid with `|S| = 3480`,
    /// `|R| = 900`, `|A| = 4`.
    pub fn table_4a() -> Self {
        ModelParams {
            io: CostParams::table_4a(),
            s_tuples: 3480,
            r_tuples: 900,
            tuple_s: 32,
            tuple_r: 16,
            block: 4096,
            avg_degree: 4.0,
            selection_cardinality: 1,
        }
    }

    /// Parameters for a `k × k` grid (the paper's benchmark family).
    pub fn for_grid(k: usize) -> Self {
        ModelParams {
            s_tuples: 4 * k * (k - 1),
            r_tuples: k * k,
            avg_degree: 4.0,
            ..Self::table_4a()
        }
    }

    /// Parameters measured from an arbitrary graph.
    pub fn for_graph(graph: &Graph) -> Self {
        ModelParams {
            s_tuples: graph.edge_count(),
            r_tuples: graph.node_count(),
            avg_degree: graph.average_degree(),
            ..Self::table_4a()
        }
    }

    /// `Bf_s = B / T_s` (128).
    pub fn bf_s(&self) -> usize {
        self.block / self.tuple_s
    }

    /// `Bf_r = B / T_r` (256).
    pub fn bf_r(&self) -> usize {
        self.block / self.tuple_r
    }

    /// `Bf_rs = B / (T_r + T_s)` (85 by byte arithmetic; the paper prints
    /// 86).
    pub fn bf_rs(&self) -> usize {
        self.block / (self.tuple_r + self.tuple_s)
    }

    /// `B_s = ⌈|S| / Bf_s⌉`.
    pub fn b_s(&self) -> usize {
        self.s_tuples.div_ceil(self.bf_s()).max(1)
    }

    /// `B_r = ⌈|R| / Bf_r⌉`.
    pub fn b_r(&self) -> usize {
        self.r_tuples.div_ceil(self.bf_r()).max(1)
    }

    /// Blocks for `n` current nodes (R-schema): `B_c = ⌈n / Bf_r⌉`.
    pub fn b_c(&self, current_nodes: f64) -> usize {
        (current_nodes.ceil() as usize).div_ceil(self.bf_r()).max(1)
    }

    /// Blocks for `n` join-result tuples: `⌈n / Bf_rs⌉`.
    pub fn b_join(&self, join_tuples: f64) -> usize {
        (join_tuples.ceil() as usize).div_ceil(self.bf_rs()).max(1)
    }

    /// The paper's no-backtracking estimate of the average current set of
    /// an `iterations`-round iterative run: `|R| / L` ("if there is no
    /// backtracking at all").
    pub fn avg_current(&self, iterations: u64) -> f64 {
        self.r_tuples as f64 / iterations.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_4a_derivations() {
        let p = ModelParams::table_4a();
        assert_eq!(p.bf_s(), 128);
        assert_eq!(p.bf_r(), 256);
        assert_eq!(p.bf_rs(), 85);
        assert_eq!(p.b_s(), 28); // 3480 / 128 rounded up
        assert_eq!(p.b_r(), 4); // 900 / 256 rounded up
    }

    #[test]
    fn grid_params_match_grid_construction() {
        let p30 = ModelParams::for_grid(30);
        assert_eq!(p30.s_tuples, 3480);
        assert_eq!(p30.r_tuples, 900);
        let p10 = ModelParams::for_grid(10);
        assert_eq!(p10.s_tuples, 360);
        assert_eq!(p10.r_tuples, 100);
    }

    #[test]
    fn for_graph_measures_the_graph() {
        let grid = atis_graph::Grid::new(12, atis_graph::CostModel::Uniform, 0).unwrap();
        let p = ModelParams::for_graph(grid.graph());
        assert_eq!(p.s_tuples, grid.graph().edge_count());
        assert_eq!(p.r_tuples, 144);
        assert!((p.avg_degree - grid.graph().average_degree()).abs() < 1e-12);
    }

    #[test]
    fn block_helpers_round_up() {
        let p = ModelParams::table_4a();
        assert_eq!(p.b_c(1.0), 1);
        assert_eq!(p.b_c(256.0), 1);
        assert_eq!(p.b_c(257.0), 2);
        assert_eq!(p.b_join(4.0), 1);
        assert_eq!(p.b_join(86.0), 2);
    }
}

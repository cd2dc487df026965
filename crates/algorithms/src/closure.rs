//! Transitive-closure baselines (the class the iterative algorithm
//! represents).
//!
//! Section 1.2: "Previous evaluation of the transitive closure algorithms
//! examined the iterative, logarithmic, Warren's, Depth first search
//! (DFS), hybrid, and spanning-tree-based algorithms" — and the paper's
//! core complaint about this class: such algorithms "compute many more
//! paths beyond the single pair path that is of interest to ATIS".
//!
//! This module implements the classical representatives so the complaint
//! can be *measured* (see the `allpairs` ablation in `atis-bench`):
//!
//! * [`warren_closure`] — Warren's 1975 two-pass in-place boolean
//!   transitive closure over bitset rows;
//! * [`floyd_warshall`] — all-pairs shortest path *costs*, the
//!   cost-aggregate closure the related work generalises to;
//! * [`dfs_reachability`] — single-source DFS closure;
//! * [`logarithmic_closure`] — the "logarithmic" repeated-squaring
//!   closure over the boolean adjacency matrix.

use atis_graph::{Graph, NodeId};

/// A dense boolean matrix packed into 64-bit words, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An `n × n` matrix of zeros.
    pub fn new(n: usize) -> BitMatrix {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; words_per_row * n],
        }
    }

    /// Builds the adjacency matrix of a graph (no self-loops added).
    pub fn adjacency(graph: &Graph) -> BitMatrix {
        let mut m = BitMatrix::new(graph.node_count());
        for e in graph.edges() {
            m.set(e.from.index(), e.to.index());
        }
        m
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0 × 0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets bit `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize) {
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Tests bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// ORs row `src` into row `dst` (`dst |= src`).
    #[inline]
    fn or_row(&mut self, dst: usize, src: usize) {
        let (d0, s0) = (dst * self.words_per_row, src * self.words_per_row);
        for k in 0..self.words_per_row {
            let v = self.bits[s0 + k];
            self.bits[d0 + k] |= v;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Warren's algorithm (1975): in-place transitive closure in two row
/// sweeps — below-diagonal pivots first, then above-diagonal.
pub fn warren_closure(graph: &Graph) -> BitMatrix {
    let mut m = BitMatrix::adjacency(graph);
    let n = m.len();
    // Pass 1: pivots below the diagonal.
    for i in 0..n {
        for j in 0..i {
            if m.get(i, j) {
                m.or_row(i, j);
            }
        }
    }
    // Pass 2: pivots above the diagonal.
    for i in 0..n {
        for j in i + 1..n {
            if m.get(i, j) {
                m.or_row(i, j);
            }
        }
    }
    m
}

/// The "logarithmic" closure: repeated squaring of `(A ∪ I)` until a fixed
/// point, reaching the closure in `⌈log2 n⌉` multiplications.
pub fn logarithmic_closure(graph: &Graph) -> BitMatrix {
    let n = graph.node_count();
    let mut m = BitMatrix::adjacency(graph);
    for i in 0..n {
        m.set(i, i); // reflexive seed so squaring accumulates paths
    }
    loop {
        let squared = multiply(&m, &m);
        if squared == m {
            break;
        }
        m = squared;
    }
    // Remove the reflexive seed for nodes with no true self-path: keep the
    // conventional "path of >= 1 edge" closure by recomputing diagonal
    // entries from the off-diagonal structure.
    let mut out = m.clone();
    for i in 0..n {
        let self_loop = graph
            .neighbors(NodeId(i as u32))
            .iter()
            .any(|e| e.to.index() == i)
            || (0..n).any(|k| k != i && m.get(i, k) && m.get(k, i));
        if !self_loop {
            out.bits[i * out.words_per_row + i / 64] &= !(1u64 << (i % 64));
        }
    }
    out
}

/// Boolean matrix product: `out[i] = ⋃ { b[j] : a[i][j] }`.
fn multiply(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    let n = a.len();
    let mut out = BitMatrix::new(n);
    for i in 0..n {
        let d0 = i * out.words_per_row;
        for j in 0..n {
            if a.get(i, j) {
                let s0 = j * b.words_per_row;
                for k in 0..out.words_per_row {
                    out.bits[d0 + k] |= b.bits[s0 + k];
                }
            }
        }
    }
    out
}

/// The spanning-tree-based closure of the related work (Dar & Jagadish
/// 1992; interval compression per Agrawal, Borgida & Jagadish 1989):
/// condense strongly connected components, label a spanning forest of the
/// condensation with postorder intervals, then propagate merged interval
/// sets in reverse topological order. Reachability queries become interval
/// containment checks — the "compressed transitive closure" the paper's
/// Section 1.2 cites.
#[derive(Debug, Clone)]
pub struct IntervalClosure {
    /// Component id per node (reverse topological numbering).
    comp: Vec<u32>,
    /// Postorder number per component in the spanning forest.
    postorder: Vec<u32>,
    /// Sorted, disjoint postorder intervals reachable from each component
    /// (including the component's own spanning-subtree interval).
    intervals: Vec<Vec<(u32, u32)>>,
    /// Whether each component contains a cycle (size > 1 or a self-loop).
    cyclic: Vec<bool>,
}

impl IntervalClosure {
    /// Builds the compressed closure of a graph.
    pub fn build(graph: &Graph) -> IntervalClosure {
        let (comp, comp_count) = strongly_connected_components(graph);

        // Condensation edges (deduplicated) and cycle flags.
        let mut comp_size = vec![0u32; comp_count];
        for &c in &comp {
            comp_size[c as usize] += 1;
        }
        let mut cyclic: Vec<bool> = comp_size.iter().map(|&s| s > 1).collect();
        let mut dag_succ: Vec<Vec<u32>> = vec![Vec::new(); comp_count];
        for e in graph.edges() {
            let (cu, cv) = (comp[e.from.index()], comp[e.to.index()]);
            if cu == cv {
                if e.from == e.to {
                    cyclic[cu as usize] = true;
                }
            } else if !dag_succ[cu as usize].contains(&cv) {
                dag_succ[cu as usize].push(cv);
            }
        }

        // Spanning forest + postorder numbers. Tarjan numbers components
        // in reverse topological order (id 0 is a sink), so descending id
        // order visits sources first.
        let mut postorder = vec![u32::MAX; comp_count];
        let mut subtree_lo = vec![u32::MAX; comp_count];
        let mut counter = 0u32;
        let mut visited = vec![false; comp_count];
        for root in (0..comp_count).rev() {
            if visited[root] {
                continue;
            }
            // Frames are (component, next successor, counter on entry).
            let mut stack: Vec<(usize, usize, u32)> = vec![(root, 0, counter)];
            visited[root] = true;
            while let Some(&mut (c, ref mut next, lo)) = stack.last_mut() {
                if *next < dag_succ[c].len() {
                    let succ = dag_succ[c][*next] as usize;
                    *next += 1;
                    if !visited[succ] {
                        visited[succ] = true;
                        stack.push((succ, 0, counter));
                    }
                } else {
                    stack.pop();
                    subtree_lo[c] = lo.min(counter);
                    postorder[c] = counter;
                    counter += 1;
                }
            }
        }

        // Interval sets, sinks first (ascending component id), so every
        // successor's set is final before it is merged upstream.
        let mut intervals: Vec<Vec<(u32, u32)>> = vec![Vec::new(); comp_count];
        for c in 0..comp_count {
            let mut set = vec![(subtree_lo[c], postorder[c])];
            for &succ in &dag_succ[c] {
                set.extend(intervals[succ as usize].iter().copied());
            }
            set.sort_unstable();
            let mut merged: Vec<(u32, u32)> = Vec::with_capacity(set.len());
            for (lo, hi) in set {
                match merged.last_mut() {
                    Some((_, last_hi)) if lo <= last_hi.saturating_add(1) => {
                        *last_hi = (*last_hi).max(hi)
                    }
                    _ => merged.push((lo, hi)),
                }
            }
            intervals[c] = merged;
        }

        IntervalClosure {
            comp,
            postorder,
            intervals,
            cyclic,
        }
    }

    /// Whether a path of at least one edge leads from `u` to `v`.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let (cu, cv) = (self.comp[u.index()] as usize, self.comp[v.index()] as usize);
        if cu == cv {
            // Within a component: reachable iff the component is cyclic
            // (distinct nodes of one SCC always reach each other; a node
            // reaches itself only through a cycle).
            return self.cyclic[cu];
        }
        let target = self.postorder[cv];
        self.intervals[cu]
            .binary_search_by(|&(lo, hi)| {
                if target < lo {
                    std::cmp::Ordering::Greater
                } else if target > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Total stored interval entries — the compression the technique buys
    /// relative to a full boolean matrix.
    pub fn stored_intervals(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }

    /// Materialises the closure as a [`BitMatrix`] (for validation).
    pub fn to_matrix(&self, n: usize) -> BitMatrix {
        let mut m = BitMatrix::new(n);
        for i in 0..n {
            for j in 0..n {
                if self.reaches(NodeId(i as u32), NodeId(j as u32)) {
                    m.set(i, j);
                }
            }
        }
        m
    }
}

/// Iterative Tarjan SCC: returns (component id per node, component
/// count), with components numbered in reverse topological order.
fn strongly_connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.node_count();
    let mut index = vec![u32::MAX; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    #[derive(Clone, Copy)]
    struct Frame {
        node: u32,
        edge: u32,
    }

    for start in 0..n as u32 {
        if index[start as usize] != u32::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame {
            node: start,
            edge: 0,
        }];
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(frame) = call.last_mut() {
            let u = frame.node as usize;
            let neighbors = graph.neighbors(NodeId(frame.node));
            if (frame.edge as usize) < neighbors.len() {
                let v = neighbors[frame.edge as usize].to.0;
                frame.edge += 1;
                if index[v as usize] == u32::MAX {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call.push(Frame { node: v, edge: 0 });
                } else if on_stack[v as usize] {
                    lowlink[u] = lowlink[u].min(index[v as usize]);
                }
            } else {
                if lowlink[u] == index[u] {
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w as usize == u {
                            break;
                        }
                    }
                    comp_count += 1;
                }
                let done = frame.node as usize;
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.node as usize;
                    lowlink[p] = lowlink[p].min(lowlink[done]);
                }
            }
        }
    }
    (comp, comp_count as usize)
}

/// Single-source reachability by depth-first search.
pub fn dfs_reachability(graph: &Graph, s: NodeId) -> Vec<bool> {
    let mut seen = vec![false; graph.node_count()];
    let mut stack = vec![s];
    seen[s.index()] = true;
    while let Some(u) = stack.pop() {
        for e in graph.neighbors(u) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

/// Floyd–Warshall all-pairs shortest-path costs: the cost-aggregate
/// closure ("aggregate closure" in the related work). Returns the
/// row-major `n × n` distance matrix with `∞` for unreachable pairs and
/// `0.0` on the diagonal.
pub fn floyd_warshall(graph: &Graph) -> Vec<f64> {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n * n];
    for i in 0..n {
        dist[i * n + i] = 0.0;
    }
    for e in graph.edges() {
        let slot = &mut dist[e.from.index() * n + e.to.index()];
        *slot = slot.min(e.cost);
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik.is_infinite() {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k * n + j];
                if through < dist[i * n + j] {
                    dist[i * n + j] = through;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid};

    fn chain() -> Graph {
        graph_from_arcs(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap()
    }

    fn cycle() -> Graph {
        graph_from_arcs(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap()
    }

    #[test]
    fn bitmatrix_set_get() {
        let mut m = BitMatrix::new(100);
        m.set(3, 99);
        assert!(m.get(3, 99));
        assert!(!m.get(99, 3));
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn warren_on_a_chain() {
        let c = warren_closure(&chain());
        assert!(c.get(0, 3));
        assert!(c.get(1, 3));
        assert!(!c.get(3, 0));
        assert!(!c.get(0, 0), "no self-loop on a chain");
        assert_eq!(c.count_ones(), 6); // 0->{1,2,3}, 1->{2,3}, 2->{3}
    }

    #[test]
    fn warren_on_a_cycle_is_complete() {
        let c = warren_closure(&cycle());
        for i in 0..3 {
            for j in 0..3 {
                assert!(c.get(i, j), "({i},{j}) should be reachable");
            }
        }
    }

    #[test]
    fn logarithmic_matches_warren() {
        for seed in [1u64, 2, 3] {
            let grid = Grid::new(5, CostModel::Uniform, seed).unwrap();
            let w = warren_closure(grid.graph());
            let l = logarithmic_closure(grid.graph());
            assert_eq!(w, l);
        }
        assert_eq!(warren_closure(&chain()), logarithmic_closure(&chain()));
        assert_eq!(warren_closure(&cycle()), logarithmic_closure(&cycle()));
    }

    #[test]
    fn warren_agrees_with_dfs_row_by_row() {
        let g = graph_from_arcs(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (1, 3, 1.0),
            ],
        )
        .unwrap();
        let c = warren_closure(&g);
        for i in 0..6 {
            let dfs = dfs_reachability(&g, NodeId(i as u32));
            for (j, &reachable) in dfs.iter().enumerate() {
                if i == j {
                    continue; // DFS marks the start; closure needs a cycle
                }
                assert_eq!(c.get(i, j), reachable, "({i},{j})");
            }
        }
    }

    #[test]
    fn interval_closure_matches_warren_on_named_graphs() {
        for g in [chain(), cycle()] {
            let w = warren_closure(&g);
            let ic = IntervalClosure::build(&g).to_matrix(g.node_count());
            assert_eq!(w, ic);
        }
        // A DAG with cross edges between spanning subtrees.
        let dag = graph_from_arcs(
            6,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (4, 2, 1.0),
                (3, 5, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(
            warren_closure(&dag),
            IntervalClosure::build(&dag).to_matrix(6)
        );
    }

    #[test]
    fn interval_closure_matches_warren_on_grids_and_minneapolis_sample() {
        for seed in [1u64, 5, 9] {
            let grid = Grid::new(5, CostModel::Uniform, seed).unwrap();
            let w = warren_closure(grid.graph());
            let ic = IntervalClosure::build(grid.graph()).to_matrix(grid.graph().node_count());
            assert_eq!(w, ic, "seed {seed}");
        }
    }

    #[test]
    fn interval_closure_handles_self_loops_and_cycles() {
        let g = graph_from_arcs(4, &[(0, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let ic = IntervalClosure::build(&g);
        assert!(ic.reaches(NodeId(0), NodeId(0)), "self loop");
        assert!(ic.reaches(NodeId(1), NodeId(1)), "2-cycle");
        assert!(ic.reaches(NodeId(1), NodeId(3)));
        assert!(!ic.reaches(NodeId(3), NodeId(3)), "3 has no cycle");
        assert!(!ic.reaches(NodeId(3), NodeId(0)));
    }

    #[test]
    fn interval_closure_compresses_tree_like_graphs() {
        // A long chain needs O(n) intervals total (one per node), far
        // fewer than the O(n^2) closure bits it encodes.
        let n = 64;
        let arcs: Vec<(u32, u32, f64)> =
            (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1.0)).collect();
        let g = graph_from_arcs(n, &arcs).unwrap();
        let ic = IntervalClosure::build(&g);
        assert_eq!(
            ic.stored_intervals(),
            n,
            "chain compresses to one interval per node"
        );
        assert_eq!(warren_closure(&g), ic.to_matrix(n));
    }

    #[test]
    fn floyd_warshall_matches_dijkstra_rows() {
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 9).unwrap();
        let n = grid.graph().node_count();
        let fw = floyd_warshall(grid.graph());
        for src in [0usize, 7, 35] {
            let (dist, _) = memory::dijkstra_all(grid.graph(), NodeId(src as u32));
            for j in 0..n {
                assert!(
                    (fw[src * n + j] - dist[j]).abs() < 1e-9,
                    "({src},{j}): {} vs {}",
                    fw[src * n + j],
                    dist[j]
                );
            }
        }
    }

    #[test]
    fn floyd_warshall_handles_unreachable_pairs() {
        let g = graph_from_arcs(3, &[(0, 1, 2.0)]).unwrap();
        let fw = floyd_warshall(&g);
        assert_eq!(fw[1], 2.0); // (0, 1)
        assert!(fw[2].is_infinite()); // (0, 2)
        assert!(fw[3].is_infinite()); // (1, 0)
        assert_eq!(fw[2 * 3 + 2], 0.0);
    }

    #[test]
    fn floyd_warshall_uses_cheapest_parallel_edge() {
        let g = graph_from_arcs(2, &[(0, 1, 5.0), (0, 1, 2.0)]).unwrap();
        let fw = floyd_warshall(&g);
        assert_eq!(fw[1], 2.0);
    }

    #[test]
    fn dfs_reaches_the_component() {
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let r = dfs_reachability(&g, NodeId(0));
        assert_eq!(r, vec![true, true, true, false]);
    }
}

//! The in-memory label-setting kernel every in-memory single-source
//! search runs: the in-memory half of Section 5.3's view of Dijkstra and
//! A\* as one best-first loop. [`HeapEntry`] is the min-heap entry every
//! in-memory search pushes (A\*'s reopening loop included); [`Adjacency`]
//! is a compact CSR of one direction of a graph, and its
//! [`Adjacency::backward`] is the workspace's one transpose; [`dijkstra`]
//! is the loop, over any arc source, with an optional target to stop at
//! and a hook that sees each improving relaxation. A label is a fixed
//! point of the graph (the least `d(u) + c` over a node's in-arcs), so
//! distances do not depend on arc order, bit for bit.

use crate::edge::Edge;
use crate::graph::Graph;
use crate::node::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry: `BinaryHeap` pops the smallest `score` first, ties
/// broken by the smaller node id so every search is deterministic.
#[derive(Debug, PartialEq)]
pub struct HeapEntry {
    /// The label (or, for A\*, the `g + h` estimate) the node was
    /// pushed with.
    pub score: f64,
    /// The node.
    pub node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap. total_cmp: a total order even on NaN,
        // so the heap can never panic or silently misorder.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra from `source` over `n` nodes whose out-arcs `arcs` lists as
/// `(head, cost)` pairs. Returns every node's label (`f64::INFINITY` if
/// unreached). With a `target`, the search stops once the target is
/// settled: its label is final then, and so is every label on its
/// predecessor chain. `relaxed(tail, head)` runs each time an arc
/// improves its head's label.
pub fn dijkstra<I: IntoIterator<Item = (NodeId, f64)>>(
    n: usize,
    source: NodeId,
    target: Option<NodeId>,
    arcs: impl Fn(NodeId) -> I,
    mut relaxed: impl FnMut(NodeId, NodeId),
) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        score: 0.0,
        node: source,
    });
    while let Some(HeapEntry { score, node }) = heap.pop() {
        if score > dist[node.index()] {
            continue; // stale entry
        }
        if target == Some(node) {
            break;
        }
        for (to, cost) in arcs(node) {
            let nd = score + cost;
            if nd < dist[to.index()] {
                dist[to.index()] = nd;
                relaxed(node, to);
                heap.push(HeapEntry {
                    score: nd,
                    node: to,
                });
            }
        }
    }
    dist
}

/// Distances from `source` to every node (`f64::INFINITY` if unreached),
/// over the graph's own adjacency.
pub fn distances_from(graph: &Graph, source: NodeId) -> Vec<f64> {
    let arcs = |u| graph.neighbors(u).iter().map(|e| (e.to, e.cost));
    dijkstra(graph.node_count(), source, None, arcs, |_, _| {})
}

/// Distances from every node *to* `target` (`f64::INFINITY` if it
/// cannot reach it): a sweep from `target` over the transpose.
pub fn distances_to(graph: &Graph, target: NodeId) -> Vec<f64> {
    Adjacency::backward(graph).sweep(target)
}

/// One direction of a graph as a compact CSR: the arcs out of `u` are
/// `heads[first[u]..first[u + 1]]` with their costs beside them — 12
/// bytes an arc, where a graph edge carries its endpoints, class and
/// occupancy in 32. Each node's arcs keep the graph's edge order.
#[derive(Debug, Default)]
pub struct Adjacency {
    first: Vec<u32>,
    heads: Vec<u32>,
    costs: Vec<f64>,
}

impl Adjacency {
    /// The graph's out-arcs.
    pub fn forward(graph: &Graph) -> Adjacency {
        Adjacency::sorted(graph, |e| (e.from.0, e.to.0))
    }

    /// The transpose: each node's in-arcs, read as out-arcs, so a sweep
    /// from `t` gives distances *to* `t`.
    pub fn backward(graph: &Graph) -> Adjacency {
        Adjacency::sorted(graph, |e| (e.to.0, e.from.0))
    }

    /// A counting sort of the graph's edges by the tail `ends` names.
    fn sorted(graph: &Graph, ends: impl Fn(&Edge) -> (u32, u32)) -> Adjacency {
        let n = graph.node_count();
        let mut first = vec![0u32; n + 1];
        for e in graph.edges() {
            first[ends(e).0 as usize + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut next = first.clone();
        let (mut heads, mut costs) = (
            vec![0u32; graph.edge_count()],
            vec![0.0; graph.edge_count()],
        );
        for e in graph.edges() {
            let (tail, head) = ends(e);
            let slot = &mut next[tail as usize];
            heads[*slot as usize] = head;
            costs[*slot as usize] = e.cost;
            *slot += 1;
        }
        Adjacency {
            first,
            heads,
            costs,
        }
    }

    /// The arcs out of `u`, as `(head, cost)` pairs.
    #[inline]
    pub fn arcs(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let arcs = self.first[u.index()] as usize..self.first[u.index() + 1] as usize;
        self.heads[arcs.clone()]
            .iter()
            .map(|&head| NodeId(head))
            .zip(self.costs[arcs].iter().copied())
    }

    /// Distances from `source` along these arcs.
    pub fn sweep(&self, source: NodeId) -> Vec<f64> {
        dijkstra(
            self.first.len() - 1,
            source,
            None,
            |u| self.arcs(u),
            |_, _| {},
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_arcs;
    use crate::SplitMix64;

    #[test]
    fn distances_match_hand_computation() {
        // 0 -> 1 (5) vs 0 -> 2 -> 1 (2).
        let g = graph_from_arcs(3, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let d = distances_from(&g, NodeId(0));
        assert_eq!(d, vec![0.0, 2.0, 1.0]);
        assert_eq!(Adjacency::forward(&g).sweep(NodeId(0)), d);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let d = distances_from(&g, NodeId(0));
        assert!(d[2].is_infinite());
    }

    #[test]
    fn reverse_distances_are_distances_to() {
        let g = graph_from_arcs(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let to_2 = distances_to(&g, NodeId(2));
        assert_eq!(to_2, vec![5.0, 3.0, 0.0]);
    }

    /// A seeded random arc list over `n` nodes: a sparse mix with
    /// parallel arcs, zero-cost arcs and self-loops, so ties and
    /// duplicate relaxations both occur.
    fn random_arcs(n: u32, seed: u64) -> Vec<(u32, u32, f64)> {
        let mut rng = SplitMix64::new(seed);
        let mut arcs = Vec::new();
        for _ in 0..3 * n {
            let (u, v) = (
                rng.next_below(n.into()) as u32,
                rng.next_below(n.into()) as u32,
            );
            let cost = match rng.next_below(4) {
                0 => 0.0,
                1 => f64::from(rng.next_below(4) as u32),
                _ => rng.next_f64() * 10.0,
            };
            arcs.push((u, v, cost));
            if rng.next_below(5) == 0 {
                // A parallel arc, sometimes cheaper, sometimes dearer.
                arcs.push((u, v, cost * 2.0 * rng.next_f64()));
            }
        }
        arcs
    }

    /// Bellman–Ford to its fixed point, straight off the arc list: an
    /// algorithm that shares nothing with the kernel.
    fn bellman_ford(n: usize, arcs: &[(u32, u32, f64)], source: u32) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; n];
        dist[source as usize] = 0.0;
        let mut changed = true;
        while changed {
            changed = false;
            for &(u, v, c) in arcs {
                let through = dist[u as usize] + c;
                if through < dist[v as usize] {
                    dist[v as usize] = through;
                    changed = true;
                }
            }
        }
        dist
    }

    /// The predecessor chain from `t` back to `s` (`t` first).
    fn chain(pred: &[Option<NodeId>], s: NodeId, t: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![t];
        while let Some(&p) = nodes.last().filter(|&&u| u != s) {
            nodes.push(pred[p.index()].unwrap());
        }
        nodes
    }

    #[test]
    fn labels_equal_the_bellman_ford_fixed_point() {
        for seed in 0..40u64 {
            let n = 2 + (seed as u32 % 7) * 9;
            let arcs = random_arcs(n, seed);
            let g = graph_from_arcs(n as usize, &arcs).unwrap();
            for s in [0, n / 2, n - 1] {
                let expected = bellman_ford(n as usize, &arcs, s);
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let got = distances_from(&g, NodeId(s));
                assert_eq!(bits(&got), bits(&expected), "seed {seed}, source {s}");
                let swept = Adjacency::forward(&g).sweep(NodeId(s));
                assert_eq!(bits(&swept), bits(&expected), "seed {seed}, source {s}");
            }
        }
    }

    #[test]
    fn stopping_at_the_target_settles_its_label_and_chain() {
        for seed in 0..40u64 {
            let n = 2 + (seed as u32 % 7) * 9;
            let g = graph_from_arcs(n as usize, &random_arcs(n, seed)).unwrap();
            let s = NodeId(0);
            let arcs = |u: NodeId| g.neighbors(u).iter().map(|e| (e.to, e.cost));
            let sweep = |target: Option<NodeId>| {
                let mut pred = vec![None; n as usize];
                let dist = dijkstra(n as usize, s, target, arcs, |u, v| {
                    pred[v.index()] = Some(u);
                });
                (dist, pred)
            };
            let (full, full_pred) = sweep(None);
            for t in g.node_ids().filter(|t| full[t.index()].is_finite()) {
                let (stopped, pred) = sweep(Some(t));
                assert_eq!(stopped[t.index()].to_bits(), full[t.index()].to_bits());
                assert_eq!(chain(&pred, s, t), chain(&full_pred, s, t), "seed {seed}");
            }
        }
    }

    /// The stop is what bounds a pair query's work: a search from 0
    /// stopped at 1 on the path 0 → 1 → 2 → 3 never relaxes 2's arcs.
    #[test]
    fn a_search_stopped_at_its_target_leaves_the_far_side_unreached() {
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let arcs = |u: NodeId| g.neighbors(u).iter().map(|e| (e.to, e.cost));
        let dist = dijkstra(4, NodeId(0), Some(NodeId(1)), arcs, |_, _| {});
        assert_eq!(dist, [0.0, 1.0, f64::INFINITY, f64::INFINITY]);
    }

    #[test]
    fn backward_sweeps_equal_sweeps_over_the_reversed_arcs() {
        for seed in 0..40u64 {
            let n = 2 + (seed as u32 % 7) * 9;
            let g = graph_from_arcs(n as usize, &random_arcs(n, seed)).unwrap();
            // Reversed in the graph's edge order, so each node's in-arcs
            // keep the order the transpose promises too.
            let reversed: Vec<_> = g.edges().map(|e| (e.to.0, e.from.0, e.cost)).collect();
            let r = graph_from_arcs(n as usize, &reversed).unwrap();
            let backward = Adjacency::backward(&g);
            for t in g.node_ids() {
                let expected = distances_from(&r, t);
                assert_eq!(backward.sweep(t), expected, "seed {seed}, target {t:?}");
                assert_eq!(distances_to(&g, t), expected, "seed {seed}, target {t:?}");
                let arcs: Vec<_> = backward.arcs(t).collect();
                let by_hand: Vec<_> = r.neighbors(t).iter().map(|e| (e.to, e.cost)).collect();
                assert_eq!(arcs, by_hand, "seed {seed}: transpose keeps edge order");
            }
        }
    }
}

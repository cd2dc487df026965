//! Single-source shortest paths for table construction.
//!
//! Preprocessing runs entirely in memory: landmark tables are built once
//! per traffic epoch and amortized over every query served at that epoch,
//! so they use an in-memory binary-heap Dijkstra rather than the metered
//! database-resident engine (`atis-algorithms` keeps its own oracle for
//! correctness testing; this copy keeps the crate graph-only and the
//! workspace layering acyclic: preprocess depends on nothing but the
//! graph substrate).
//!
//! A build runs `2·k` independent sweeps, forward from each landmark and
//! backward to it, so the kernel is shaped for that: `Adjacency` is a
//! compact CSR (`u32` heads, `f64` costs) built once per direction —
//! the backward one is the graph's transpose — and `pooled` hands the
//! sweeps to scoped worker threads, as many as
//! [`std::thread::available_parallelism`] reports. A sweep's labels are
//! a fixed point of the graph (each node's label is the least
//! `d(u) + c` over its in-edges, whatever order they are scanned in), so
//! the kernel's output equals [`distances_from`], the reference it is
//! tested against, bit for bit, on any number of workers.

use atis_graph::{Edge, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Min-heap entry (reversed ordering, ties broken by node id so table
/// construction is deterministic).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp: a total order even on NaN, so the heap can never
        // panic or silently misorder.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Distances from `source` to every node (`f64::INFINITY` if unreached),
/// over the graph's own adjacency: the reference the table kernel is
/// held to.
pub fn distances_from(graph: &Graph, source: NodeId) -> Vec<f64> {
    dijkstra(graph.node_count(), source, |u| {
        graph.neighbors(u).iter().map(|e| (e.to.0, e.cost))
    })
}

/// Distances from every node *to* `target` (`f64::INFINITY` if it
/// cannot reach it): a sweep from `target` over the transpose.
pub fn distances_to(graph: &Graph, target: NodeId) -> Vec<f64> {
    Adjacency::backward(graph).sweep(target)
}

/// Dijkstra from `source` over `n` nodes whose out-arcs `arcs` lists as
/// `(head, cost)` pairs.
fn dijkstra<I: Iterator<Item = (u32, f64)>>(
    n: usize,
    source: NodeId,
    arcs: impl Fn(NodeId) -> I,
) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: du, node }) = heap.pop() {
        if du > dist[node.index()] {
            continue;
        }
        for (to, cost) in arcs(node) {
            let nd = du + cost;
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: NodeId(to),
                });
            }
        }
    }
    dist
}

/// One direction of the graph as a compact CSR: the arcs out of `u` are
/// `heads[first[u]..first[u + 1]]` with their costs beside them — 12
/// bytes an arc, where a graph edge carries its endpoints, class and
/// occupancy in 32.
#[derive(Debug, Default)]
pub(crate) struct Adjacency {
    first: Vec<u32>,
    heads: Vec<u32>,
    costs: Vec<f64>,
}

impl Adjacency {
    /// The graph's out-arcs.
    pub(crate) fn forward(graph: &Graph) -> Adjacency {
        Adjacency::sorted(graph, |e| (e.from.0, e.to.0))
    }

    /// The transpose: each node's in-arcs, read as out-arcs, so a sweep
    /// from `L` gives distances *to* `L`.
    pub(crate) fn backward(graph: &Graph) -> Adjacency {
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

    /// Distances from `source` along these arcs.
    pub(crate) fn sweep(&self, source: NodeId) -> Vec<f64> {
        dijkstra(self.first.len() - 1, source, |u| {
            let arcs = self.first[u.index()] as usize..self.first[u.index() + 1] as usize;
            self.heads[arcs.clone()]
                .iter()
                .copied()
                .zip(self.costs[arcs].iter().copied())
        })
    }
}

/// How many threads the pooled passes use: what
/// [`std::thread::available_parallelism`] reports, one if it cannot say.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// One unit of pooled work. It returns nothing: it writes its result
/// through the `&mut` it captured, so no result is ever matched back to
/// its job.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Runs every job across `workers` threads, the calling thread one of
/// them. Jobs are taken off a shared queue one at a time, so an uneven
/// mix balances itself; one worker runs them all, in order, on the
/// calling thread.
pub(crate) fn pooled(workers: usize, jobs: Vec<Job<'_>>) {
    let helpers = workers.min(jobs.len()).saturating_sub(1);
    let queue = Mutex::new(jobs.into_iter());
    let work = || loop {
        // The lock is held to take a job, never while one runs, so a
        // panicking job cannot poison it; it surfaces from `join`.
        let Some(job) = queue.lock().ok().and_then(|mut jobs| jobs.next()) else {
            return;
        };
        job();
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;

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

    #[test]
    fn pooled_jobs_each_run_once_on_any_worker_count() {
        for workers in [1, 2, 5, 64] {
            let mut squares = vec![0u64; 37];
            let jobs = (squares.iter_mut().zip(0u64..))
                .map(|(slot, j)| Box::new(move || *slot = j * j) as Job)
                .collect();
            pooled(workers, jobs);
            assert_eq!(squares, (0..37).map(|j| j * j).collect::<Vec<_>>());
        }
        pooled(3, Vec::new());
    }
}

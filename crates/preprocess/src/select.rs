//! Landmark selection strategies.
//!
//! Landmark quality decides estimator tightness: the ALT bound
//! `d(L,t) − d(L,u)` is exact when `u` sits on a shortest path from `L`
//! to `t`, so good landmarks sit *behind* sources and *beyond*
//! destinations along the network's long corridors. Two strategies are
//! provided, both deterministic for a given graph:
//!
//! * [`LandmarkSelection::FarthestPoint`] — the classic greedy spread:
//!   start from the node farthest from node 0, then repeatedly add the
//!   node maximizing the minimum distance to the landmarks chosen so far.
//!   On the paper's grids this converges to the corners, which is exactly
//!   where a diagonal query wants its landmarks; it needs one SSSP per
//!   chosen landmark.
//! * [`LandmarkSelection::Coverage`] — workload-aware greedy cover:
//!   sample a deterministic set of query pairs, precompute bounds for a
//!   farthest-point candidate pool, then greedily pick the candidate that
//!   most improves the summed lower bound over the sample. Costlier to
//!   run (two SSSPs per *candidate*) but measurably tighter on irregular
//!   networks like the Minneapolis map, where pure geometric spread
//!   wastes landmarks on lakes and river banks.

use crate::error::PreprocessError;
use crate::pool::{self, Job};
use atis_graph::sssp::Adjacency;
use atis_graph::{Graph, NodeId, PartitionMap, SplitMix64};

/// How landmarks are chosen from the loaded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// Greedy farthest-point spread (one SSSP per landmark).
    FarthestPoint,
    /// Greedy coverage maximization over a deterministic sample of query
    /// pairs (two SSSPs per candidate; candidates come from a
    /// farthest-point pool four times the landmark count).
    Coverage {
        /// Number of sampled query pairs the greedy step scores against.
        sample_pairs: usize,
    },
    /// Partition-driven spread for metro-scale networks: partition the
    /// graph into regions of `region_target` nodes (see
    /// [`atis_graph::PartitionMap`]), greedily spread landmark *regions*
    /// by centroid distance, then take each chosen region's most central
    /// node. Needs no SSSP at all, so selection stays O(n) while the
    /// SSSP-based strategies grow with `n · count` — the difference
    /// between seconds and minutes of preprocess at 100k nodes
    /// (`SCALING.md`).
    PartitionSpread {
        /// Region size the partition is built with; 256 aligns regions
        /// with node-relation blocks.
        region_target: usize,
    },
}

impl LandmarkSelection {
    /// The default coverage configuration (48 sampled pairs).
    pub const COVERAGE: LandmarkSelection = LandmarkSelection::Coverage { sample_pairs: 48 };

    /// The default partition-spread configuration (block-aligned
    /// 256-node regions).
    pub const PARTITION_SPREAD: LandmarkSelection =
        LandmarkSelection::PartitionSpread { region_target: 256 };

    /// Short label for benchmark tables and trace output.
    pub fn label(&self) -> &'static str {
        match self {
            LandmarkSelection::FarthestPoint => "farthest-point",
            LandmarkSelection::Coverage { .. } => "coverage",
            LandmarkSelection::PartitionSpread { .. } => "partition-spread",
        }
    }
}

/// Selects `count` landmarks from `graph` with the given strategy.
///
/// # Errors
/// Fails for an empty graph, a zero count, or a count exceeding the node
/// count.
pub fn select(
    graph: &Graph,
    count: usize,
    selection: LandmarkSelection,
) -> Result<Vec<NodeId>, PreprocessError> {
    let (forward, backward) = (Adjacency::forward(graph), Adjacency::backward(graph));
    let chosen = select_swept(
        graph,
        &forward,
        &backward,
        count,
        selection,
        pool::workers(),
    )?;
    Ok(chosen.into_iter().map(|landmark| landmark.node).collect())
}

/// A chosen landmark and the sweeps selection already ran from it, forward
/// over `forward` and backward over `backward`, so the table build need
/// not run them again.
#[derive(Debug)]
pub(crate) struct Swept {
    pub(crate) node: NodeId,
    pub(crate) forward: Option<Vec<f64>>,
    pub(crate) backward: Option<Vec<f64>>,
}

/// [`select`], handing back every sweep it ran for a chosen landmark.
/// `forward` and `backward` are `graph`'s adjacency and its transpose.
pub(crate) fn select_swept(
    graph: &Graph,
    forward: &Adjacency,
    backward: &Adjacency,
    count: usize,
    selection: LandmarkSelection,
    workers: usize,
) -> Result<Vec<Swept>, PreprocessError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(PreprocessError::EmptyGraph);
    }
    if count == 0 {
        return Err(PreprocessError::ZeroLandmarks);
    }
    if count > n {
        return Err(PreprocessError::TooManyLandmarks {
            requested: count,
            nodes: n,
        });
    }
    Ok(match selection {
        LandmarkSelection::FarthestPoint => {
            let (nodes, sweeps) = farthest_point(forward, n, count);
            let swept = nodes.into_iter().zip(sweeps);
            swept
                .map(|(node, sweep)| Swept {
                    node,
                    forward: Some(sweep),
                    backward: None,
                })
                .collect()
        }
        LandmarkSelection::Coverage { sample_pairs } => {
            coverage(forward, backward, n, count, sample_pairs.max(1), workers)
        }
        LandmarkSelection::PartitionSpread { region_target } => {
            let nodes = partition_spread(graph, count, region_target.max(1));
            nodes
                .into_iter()
                .map(|node| Swept {
                    node,
                    forward: None,
                    backward: None,
                })
                .collect()
        }
    })
}

/// Argmax over finite entries, ties broken by the lowest node id; `None`
/// when no entry is finite and positive.
fn argmax_finite(values: &[f64]) -> Option<NodeId> {
    let mut best: Option<(f64, usize)> = None;
    for (i, &v) in values.iter().enumerate() {
        if v.is_finite() && v > 0.0 {
            match best {
                Some((bv, _)) if bv >= v => {}
                _ => best = Some((v, i)),
            }
        }
    }
    best.map(|(_, i)| NodeId(i as u32))
}

/// The spread's landmarks and, beside each, its forward sweep.
fn farthest_point(forward: &Adjacency, n: usize, count: usize) -> (Vec<NodeId>, Vec<Vec<f64>>) {
    // Seed: the node farthest from node 0 (node 0 itself on a singleton
    // or fully disconnected graph).
    let from_origin = forward.sweep(NodeId(0));
    let first = argmax_finite(&from_origin).unwrap_or(NodeId(0));
    let mut chosen = vec![first];
    // min / sum over chosen landmarks of d(L, u). The sum breaks the
    // massive min-distance ties a uniform grid produces, steering the
    // spread to the periphery (corners) instead of the lowest tied id.
    let mut sweeps = vec![forward.sweep(first)];
    let mut min_dist = sweeps[0].clone();
    let mut sum_dist = sweeps[0].clone();
    while chosen.len() < count {
        // A chosen node's `min_dist` is 0, so `m > 0.0` skips it.
        let mut best: Option<(f64, f64, usize)> = None;
        for i in 0..n {
            let (m, s) = (min_dist[i], sum_dist[i]);
            if m.is_finite() && m > 0.0 {
                match best {
                    Some((bm, bs, _)) if bm > m || (bm == m && bs >= s) => {}
                    _ => best = Some((m, s, i)),
                }
            }
        }
        let next = match best {
            Some((_, _, i)) => NodeId(i as u32),
            // Spread exhausted (graph smaller than its node count
            // suggests, e.g. heavily disconnected): fill with the lowest
            // unchosen ids so the requested count is honoured.
            None => match (0..n as u32).map(NodeId).find(|id| !chosen.contains(id)) {
                Some(node) => node,
                None => break,
            },
        };
        let dist = forward.sweep(next);
        for i in 0..n {
            min_dist[i] = min_dist[i].min(dist[i]);
            if dist[i].is_finite() {
                sum_dist[i] += dist[i];
            }
        }
        chosen.push(next);
        sweeps.push(dist);
    }
    (chosen, sweeps)
}

/// The ALT lower bound a single candidate's tables give one `(s, t)` pair.
fn pair_bound(fwd: &[f64], bwd: &[f64], s: usize, t: usize) -> f64 {
    let mut bound: f64 = 0.0;
    if fwd[t].is_finite() && fwd[s].is_finite() {
        bound = bound.max(fwd[t] - fwd[s]);
    }
    if bwd[s].is_finite() && bwd[t].is_finite() {
        bound = bound.max(bwd[s] - bwd[t]);
    }
    bound
}

fn coverage(
    forward: &Adjacency,
    backward: &Adjacency,
    n: usize,
    count: usize,
    sample_pairs: usize,
    workers: usize,
) -> Vec<Swept> {
    // Candidate pool: a farthest-point spread four times the target size
    // (bounded by the graph), so the greedy step chooses among
    // well-separated nodes instead of scoring all n. The spread ran every
    // candidate's forward sweep; the backward ones are independent.
    let (pool, forwards) = farthest_point(forward, n, (count * 4).min(n));
    let mut backwards = vec![Vec::new(); pool.len()];
    let jobs = (backwards.iter_mut().zip(&pool))
        .map(|(slot, &c)| Box::new(move || *slot = backward.sweep(c)) as Job)
        .collect();
    pool::pooled(workers, jobs);
    let tables: Vec<(Vec<f64>, Vec<f64>)> = forwards.into_iter().zip(backwards).collect();
    let picks = if pool.len() <= count {
        (0..pool.len()).collect()
    } else {
        greedy_cover(&tables, n, count, sample_pairs)
    };
    let mut tables: Vec<_> = tables.into_iter().map(Some).collect();
    picks
        .into_iter()
        .filter_map(|ci| {
            let (forward, backward) = tables[ci].take()?;
            Some(Swept {
                node: pool[ci],
                forward: Some(forward),
                backward: Some(backward),
            })
        })
        .collect()
}

/// The greedy step of coverage selection: `count` candidate indexes into
/// `tables`, each the one that most improves the summed lower bound over
/// a deterministic sample of query pairs.
fn greedy_cover(
    tables: &[(Vec<f64>, Vec<f64>)],
    n: usize,
    count: usize,
    sample_pairs: usize,
) -> Vec<usize> {
    // Deterministic query-pair sample. The seed is fixed: selection must
    // be a pure function of the graph so rebuilds across epochs agree.
    let mut rng = SplitMix64::new(0xA17_5EED);
    let mut pairs = Vec::with_capacity(sample_pairs);
    while pairs.len() < sample_pairs {
        let s = (rng.next_u64() % n as u64) as usize;
        let t = (rng.next_u64() % n as u64) as usize;
        if s != t {
            pairs.push((s, t));
        }
    }

    let mut best_bound = vec![0.0f64; pairs.len()];
    let mut chosen: Vec<usize> = Vec::with_capacity(count);
    let mut used = vec![false; tables.len()];
    for _ in 0..count {
        let mut best: Option<(f64, usize)> = None;
        for (ci, (fwd, bwd)) in tables.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let gain: f64 = pairs
                .iter()
                .zip(best_bound.iter())
                .map(|(&(s, t), &have)| (pair_bound(fwd, bwd, s, t) - have).max(0.0))
                .sum();
            match best {
                Some((bg, _)) if bg >= gain => {}
                _ => best = Some((gain, ci)),
            }
        }
        let Some((_, ci)) = best else { break };
        used[ci] = true;
        let (fwd, bwd) = &tables[ci];
        for (bb, &(s, t)) in best_bound.iter_mut().zip(pairs.iter()) {
            *bb = bb.max(pair_bound(fwd, bwd, s, t));
        }
        chosen.push(ci);
    }
    // Degenerate sample (e.g. every pair disconnected): fall back to the
    // spread so the requested count is still honoured.
    let missing = count.saturating_sub(chosen.len());
    chosen.extend((0..tables.len()).filter(|&ci| !used[ci]).take(missing));
    chosen
}

fn partition_spread(graph: &Graph, count: usize, region_target: usize) -> Vec<NodeId> {
    let n = graph.node_count();
    let map = PartitionMap::build(graph, region_target);
    let k = map.region_count();
    // Region centroids.
    let mut cx = vec![0.0f64; k];
    let mut cy = vec![0.0f64; k];
    let mut sz = vec![0usize; k];
    for i in 0..n {
        let r = map.region_of(NodeId(i as u32)) as usize;
        let p = graph.point(NodeId(i as u32));
        cx[r] += p.x;
        cy[r] += p.y;
        sz[r] += 1;
    }
    for r in 0..k {
        cx[r] /= sz[r].max(1) as f64;
        cy[r] /= sz[r].max(1) as f64;
    }
    // Greedy farthest-point over centroids (planar, no SSSP). Seed: the
    // centroid farthest from the network's mean position, which lands on
    // the periphery like the SSSP spread does.
    let (mx, my) = (
        cx.iter().sum::<f64>() / k as f64,
        cy.iter().sum::<f64>() / k as f64,
    );
    let d2 = |ax: f64, ay: f64, bx: f64, by: f64| (ax - bx).powi(2) + (ay - by).powi(2);
    let picks = count.min(k);
    let mut chosen_regions = Vec::with_capacity(picks);
    let mut min_d2 = vec![f64::INFINITY; k];
    let seed = (0..k)
        .max_by(|&a, &b| {
            d2(cx[a], cy[a], mx, my)
                .total_cmp(&d2(cx[b], cy[b], mx, my))
                .then(b.cmp(&a))
        })
        .unwrap_or(0);
    let mut next = seed;
    while chosen_regions.len() < picks {
        chosen_regions.push(next);
        for r in 0..k {
            min_d2[r] = min_d2[r].min(d2(cx[r], cy[r], cx[next], cy[next]));
        }
        let Some(far) = (0..k)
            .filter(|&r| !chosen_regions.contains(&r))
            .max_by(|&a, &b| min_d2[a].total_cmp(&min_d2[b]).then(b.cmp(&a)))
        else {
            break;
        };
        next = far;
    }
    // Each chosen region contributes its most central node (ties to the
    // lowest id, so the result is a pure function of the graph).
    let mut central: Vec<Option<(f64, u32)>> = vec![None; k];
    for i in 0..n {
        let r = map.region_of(NodeId(i as u32)) as usize;
        let p = graph.point(NodeId(i as u32));
        let dd = d2(p.x, p.y, cx[r], cy[r]);
        match central[r] {
            Some((bd, _)) if bd <= dd => {}
            _ => central[r] = Some((dd, i as u32)),
        }
    }
    let mut chosen: Vec<NodeId> = chosen_regions
        .iter()
        .filter_map(|&r| central[r].map(|(_, id)| NodeId(id)))
        .collect();
    // More landmarks than regions requested: fill with the lowest
    // unchosen ids, mirroring the farthest-point fallback.
    let mut i = 0u32;
    while chosen.len() < count {
        if !chosen.contains(&NodeId(i)) {
            chosen.push(NodeId(i));
        }
        i += 1;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, Grid};

    #[test]
    fn farthest_point_picks_grid_corners() {
        let grid = Grid::new(8, CostModel::Uniform, 0).unwrap();
        let marks = select(grid.graph(), 4, LandmarkSelection::FarthestPoint).unwrap();
        assert_eq!(marks.len(), 4);
        // All four are corner-adjacent: on an 8x8 uniform grid the
        // farthest-point spread must reach all four corner cells.
        let corners = [
            grid.node_at(0, 0),
            grid.node_at(7, 0),
            grid.node_at(0, 7),
            grid.node_at(7, 7),
        ];
        for c in corners {
            assert!(
                marks.iter().any(|&m| {
                    let (a, b) = (grid.graph().point(m), grid.graph().point(c));
                    a.manhattan(&b) <= 2.0
                }),
                "no landmark near corner {c:?} in {marks:?}"
            );
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 9).unwrap();
        for sel in [
            LandmarkSelection::FarthestPoint,
            LandmarkSelection::COVERAGE,
        ] {
            let a = select(grid.graph(), 6, sel).unwrap();
            let b = select(grid.graph(), 6, sel).unwrap();
            assert_eq!(a, b, "{} selection must be deterministic", sel.label());
        }
    }

    #[test]
    fn coverage_returns_the_requested_count() {
        let grid = Grid::new(9, CostModel::TWENTY_PERCENT, 2).unwrap();
        let marks = select(grid.graph(), 5, LandmarkSelection::COVERAGE).unwrap();
        assert_eq!(marks.len(), 5);
        let mut dedup = marks.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "landmarks must be distinct");
    }

    #[test]
    fn partition_spread_uses_distinct_regions() {
        use atis_graph::{Metro, MetroSpec, PartitionMap};
        let m = Metro::new(MetroSpec::new(3, 2, 11)).unwrap();
        let marks = select(m.graph(), 6, LandmarkSelection::PARTITION_SPREAD).unwrap();
        assert_eq!(marks.len(), 6);
        // With six 256-node cities and six landmarks, every landmark must
        // sit in its own region (= its own city).
        let map = PartitionMap::build(m.graph(), 256);
        let mut regions: Vec<u32> = marks.iter().map(|&l| map.region_of(l)).collect();
        regions.sort_unstable();
        regions.dedup();
        assert_eq!(regions.len(), 6, "landmarks share a region: {marks:?}");
    }

    #[test]
    fn partition_spread_is_deterministic_and_fills_past_region_count() {
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 3).unwrap();
        let sel = LandmarkSelection::PartitionSpread { region_target: 36 };
        let a = select(grid.graph(), 4, sel).unwrap();
        let b = select(grid.graph(), 4, sel).unwrap();
        assert_eq!(a, b);
        // One region only (target covers the whole grid): the remaining
        // landmarks fall back to the lowest unchosen ids.
        assert_eq!(a.len(), 4);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "landmarks must be distinct");
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let grid = Grid::new(3, CostModel::Uniform, 0).unwrap();
        assert_eq!(
            select(grid.graph(), 0, LandmarkSelection::FarthestPoint),
            Err(PreprocessError::ZeroLandmarks)
        );
        assert!(matches!(
            select(grid.graph(), 10, LandmarkSelection::FarthestPoint),
            Err(PreprocessError::TooManyLandmarks {
                requested: 10,
                nodes: 9
            })
        ));
    }
}

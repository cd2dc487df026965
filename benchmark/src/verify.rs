//! The oracle check: a seeded sample of answers is re-priced against the
//! in-memory Dijkstra on the graph *at the epoch each answer claims*. The
//! harness rebuilds that graph itself by replaying its own update script
//! (install `k` is script entry `k - 1`), so nothing the program says
//! about its state is trusted.
//!
//! The rule is the bit-identity rule of `tests/hierarchy_identity.rs`: the
//! answer's cost equals the oracle's within 1e-9, every hop is an edge,
//! and the reported total bit-equals the route re-priced left to right. A
//! degraded rung (v4/v3/Dijkstra) prices through the storage engine's
//! tuples, so it is held to 1e-3 without the bit rule, as the repository's
//! own tests hold it.

use crate::inputs::{Pair, Update};
use crate::load::Sampled;
use atis_algorithms::memory::dijkstra_pair;
use atis_graph::{Graph, Path};
use atis_serve::{RouteOutcome, RouteService};

fn agrees(graph: &Graph, pair: Pair, path: Option<&Path>, exact: bool) -> bool {
    let oracle = dijkstra_pair(graph, pair.0, pair.1);
    match (path, oracle) {
        (None, None) => true,
        (Some(path), Some(oracle)) => {
            let mut repriced = 0.0;
            for (a, b) in path.hops() {
                match graph.edge_cost(a, b) {
                    Some(c) => repriced += c,
                    None => return false,
                }
            }
            if exact {
                (path.cost - oracle.cost).abs() < 1e-9 && repriced.to_bits() == path.cost.to_bits()
            } else {
                (path.cost - oracle.cost).abs() < 1e-3
            }
        }
        _ => false,
    }
}

/// Counts the sampled answers that disagree with the oracle at their own
/// epoch. `applied` is how many script entries were installed.
pub fn wrong_answers(
    base: &Graph,
    script: &[Update],
    applied: usize,
    samples: &mut [Sampled],
) -> usize {
    samples.sort_by_key(|s| s.epoch);
    let mut graph = base.clone();
    let mut installed = 0usize;
    let mut wrong = 0;
    for sample in samples.iter() {
        let epoch = sample.epoch as usize;
        if epoch > applied {
            wrong += 1;
            continue;
        }
        while installed < epoch {
            let u = &script[installed];
            graph
                .set_edge_cost(u.u, u.v, u.cost)
                .expect("scripted updates are valid");
            installed += 1;
        }
        let exact = !matches!(sample.outcome, RouteOutcome::Degraded { .. });
        if !agrees(&graph, sample.pair, sample.path.as_ref(), exact) {
            wrong += 1;
        }
    }
    wrong
}

/// After the updater has stopped: asks the sampled pairs again and checks
/// the fresh answers against the oracle on the final graph.
pub fn wrong_after_quiescing(
    service: &RouteService,
    base: &Graph,
    script: &[Update],
    applied: usize,
    samples: &[Sampled],
) -> usize {
    let mut graph = base.clone();
    for u in &script[..applied] {
        graph
            .set_edge_cost(u.u, u.v, u.cost)
            .expect("scripted updates are valid");
    }
    samples
        .iter()
        .filter(|sample| match service.route(sample.pair.0, sample.pair.1) {
            Ok(answer) => {
                let exact = !answer.outcome.is_degraded();
                answer.epoch != applied as u64
                    || !agrees(&graph, sample.pair, answer.path.as_ref(), exact)
            }
            Err(_) => true,
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::NodeId;

    fn diamond() -> Graph {
        graph_from_arcs(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)]).unwrap()
    }

    fn sample(nodes: &[u32], cost: f64, epoch: u64) -> Sampled {
        Sampled {
            pair: (NodeId(nodes[0]), NodeId(*nodes.last().unwrap())),
            path: Some(Path {
                nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
                cost,
            }),
            epoch,
            outcome: RouteOutcome::Computed,
        }
    }

    #[test]
    fn answers_are_priced_at_the_epoch_they_claim() {
        let base = diamond();
        let script = [Update {
            u: NodeId(0),
            v: NodeId(1),
            cost: 50.0,
            decrease: false,
        }];
        // Before the jam 0-1-3 (cost 2) is right; after it 0-2-3 (cost 4).
        let mut ok = vec![sample(&[0, 1, 3], 2.0, 0), sample(&[0, 2, 3], 4.0, 1)];
        assert_eq!(wrong_answers(&base, &script, 1, &mut ok), 0);
        // The old route served at the new epoch is a wrong answer, and so
        // is a wrong total, a non-edge hop, or an epoch never installed.
        let mut bad = vec![
            sample(&[0, 1, 3], 2.0, 1),
            sample(&[0, 1, 3], 2.5, 0),
            sample(&[0, 3], 1.0, 0),
            sample(&[0, 2, 3], 4.0, 2),
        ];
        assert_eq!(wrong_answers(&base, &script, 1, &mut bad), 4);
    }
}

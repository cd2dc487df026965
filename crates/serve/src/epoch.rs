//! What one traffic update does to an epoch's artifacts.
//!
//! The paper's serving scenario has many in-vehicle clients reading one
//! central map while live traffic updates trickle in. The store that
//! versions the map ([`crate::shard::ShardedEpochDb`]) installs every
//! update copy-on-write: readers pin an immutable snapshot, a writer
//! clones the current database, applies the cost change to the clone and
//! publishes it as the next install — so every answer has a well-defined
//! epoch and never mixes pre- and post-update edge costs. The database
//! is a persistent structure, so "clones" means pointer bumps and
//! "applies" copies the chunks it writes: the artifacts below follow the
//! same rule — patched tables share the old ones outright, a re-priced
//! overlay shares every price group the edge cannot reach.
//!
//! This module holds the part of an install that does not depend on how
//! installs are versioned: keeping the landmark (ALT) tables and the
//! contraction hierarchy current for the new costs
//! (`maintain_artifacts`), and the record an install reports back
//! ([`EpochUpdate`]).

use atis_algorithms::Database;
use atis_graph::{Graph, NodeId};

/// How an update maintained the snapshot's landmark (ALT) tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkRefresh {
    /// The database carries no landmark tables (or the update touched no
    /// edge), so there was nothing to maintain.
    None,
    /// The old tables stay admissible at the new cost — any increase
    /// (old bounds under-estimate distances that only grew), and a
    /// decrease that undercuts no table value, such as a jam clearing
    /// back to the cost the tables were built at — so they were
    /// re-stamped for the new epoch without recomputation: degraded but
    /// sound.
    Patched,
    /// The new cost undercuts a table value, so stale bounds could
    /// overestimate — or the tables were not current for the costs
    /// before the update, so nothing is known about them: rebuilt from
    /// scratch (2·k SSSP sweeps) before the epoch installed.
    Rebuilt,
    /// A required rebuild failed: the stale tables were left in place
    /// (not current, so v4 fails typed and the degrade ladder serves v3
    /// instead of wrong answers). The serving layer counts it
    /// (`serve_landmark_rebuild_failed_total`).
    RebuildFailed,
}

/// How an update maintained the snapshot's contraction hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyRefresh {
    /// The database carries no hierarchy (or the update touched no
    /// edge), so there was nothing to maintain.
    None,
    /// The overlay topology is metric-independent, so the update —
    /// increase or decrease alike — re-priced the shortcuts the changed
    /// edge can reach (or, for an overlay that was not current for the
    /// costs before the update, all of them): exact, and the overlay a
    /// build at the new costs would price. Nothing on the update path
    /// re-contracts, so nothing on it can fail.
    Customized,
}

/// The result of installing one traffic update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochUpdate {
    /// The newly installed epoch.
    pub epoch: u64,
    /// Directed edge tuples the update touched.
    pub updated: usize,
    /// The edge's cost before the update (minimum over parallel edges).
    pub old_cost: f64,
    /// The edge's cost after the update.
    pub new_cost: f64,
    /// How the epoch's landmark tables were kept current.
    pub landmarks: LandmarkRefresh,
    /// How the epoch's contraction hierarchy was kept current.
    pub hierarchy: HierarchyRefresh,
    /// Overlay arcs the hierarchy refresh examined: what the changed
    /// edge can reach, or every arc when the full pass had to run (0
    /// without a hierarchy).
    pub arcs_examined: usize,
}

/// Maintains a cloned snapshot's landmark (ALT) tables and contraction
/// hierarchy for a change of edge `u → v` to `new_cost`; `before` is the
/// graph of the snapshot `next` was cloned from. Returns the database,
/// both refresh arms, and the overlay arcs the hierarchy arm examined.
///
/// Each artifact's cheap arm — re-stamp the tables, re-price only what
/// the edge can reach — is exact only for an artifact that is current
/// for `before`, and that is checked here, not assumed: a service may
/// have been started on a stale artifact, and a failed rebuild leaves
/// one behind. Whatever fails the check is healed by the full arm
/// (rebuild the tables, re-price the whole overlay). A failed table
/// rebuild leaves the stale tables in place, marked not-current, so the
/// degrade ladder serves a lower rung.
///
/// An install costs two passes over the edges for fingerprints however
/// many artifacts it maintains: one over `before`, and one over the new
/// costs that the landmark arm takes to stamp its tables and the
/// hierarchy arm reuses.
///
/// Artifacts are whole-graph, so this is independent of how many shards
/// [`crate::shard::ShardedEpochDb`] versions the install by.
pub(crate) fn maintain_artifacts(
    mut next: Database,
    before: &Graph,
    (u, v): (NodeId, NodeId),
    new_cost: f64,
) -> (Database, LandmarkRefresh, HierarchyRefresh, usize) {
    let mut landmarks = LandmarkRefresh::None;
    if next.landmarks().is_none() && next.hierarchy().is_none() {
        return (next, landmarks, HierarchyRefresh::None, 0);
    }
    let before = before.cost_fingerprint();
    let mut after = None;
    if let Some(tables) = next.landmarks().cloned() {
        let cheap = tables.fingerprint() == before && tables.admits_cost(u, v, new_cost);
        let fresh = if cheap {
            Ok(tables.patched_for(next.graph()))
        } else {
            tables.rebuild_for(next.graph())
        };
        landmarks = match fresh {
            Ok(fresh) => {
                after = Some(fresh.fingerprint());
                next = next.with_landmarks(fresh);
                if cheap {
                    LandmarkRefresh::Patched
                } else {
                    LandmarkRefresh::Rebuilt
                }
            }
            // Leave the stale tables in place — v4 then fails typed and
            // the degrade ladder serves v3: degraded service, not wrong
            // answers. Reported so the serving layer can count it.
            Err(_) => LandmarkRefresh::RebuildFailed,
        };
    }
    let Some(overlay) = next.hierarchy().cloned() else {
        return (next, landmarks, HierarchyRefresh::None, 0);
    };
    let (customized, examined) = if overlay.fingerprint() == before {
        let after = after.unwrap_or_else(|| next.graph().cost_fingerprint());
        overlay.customized_for_edge(next.graph(), u, v, after)
    } else {
        (overlay.customized_for(next.graph()), overlay.arc_count())
    };
    next = next.with_hierarchy(customized);
    (next, landmarks, HierarchyRefresh::Customized, examined)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests drive the public API, which mints the root lock level"
)]
mod tests {
    use super::*;
    use crate::shard::{ShardMap, ShardedEpochDb};
    use atis_algorithms::Algorithm;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::NodeId;

    fn store(db: Database) -> ShardedEpochDb {
        let nodes = db.graph().node_count();
        ShardedEpochDb::new(db, ShardMap::single(nodes))
    }

    fn two_route_graph() -> ShardedEpochDb {
        // 0 -> 1 -> 3 (cost 2) versus 0 -> 2 -> 3 (cost 4).
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)]).unwrap();
        store(Database::open(&g).unwrap())
    }

    #[test]
    fn cost_increase_patches_tables_cost_decrease_rebuilds() {
        use atis_algorithms::AStarVersion;
        use atis_graph::{CostModel, Grid, QueryKind};
        use atis_preprocess::{LandmarkTables, PreprocessConfig};

        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 8).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let epochs = store(Database::open(grid.graph()).unwrap().with_landmarks(tables));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));

        // Congestion: patched — the tables the store started with,
        // re-stamped — and v4 still answers optimally at the new epoch.
        let built = epochs.snapshot().db.landmarks().unwrap().clone();
        let up = epochs.update_edge_cost(a, b, 9.0).unwrap().update;
        assert_eq!(up.landmarks, LandmarkRefresh::Patched);
        let snap = epochs.snapshot();
        let lm = snap.db.landmarks().unwrap();
        assert!(lm.is_current_for(snap.db.graph()));
        assert_eq!(lm.shared_with(&built).copied(), 0);
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V4), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-3);

        // The jam clears: a cost decrease forces a rebuild — fresh tables
        // that share no memory with the patched ones.
        let down = epochs.update_edge_cost(a, b, 1.0).unwrap().update;
        assert_eq!(down.landmarks, LandmarkRefresh::Rebuilt);
        let snap = epochs.snapshot();
        let lm = snap.db.landmarks().unwrap();
        assert!(lm.is_current_for(snap.db.graph()));
        assert_eq!(lm.shared_with(&built).shared, 0);
        assert!(snap
            .db
            .run(Algorithm::AStar(AStarVersion::V4), s, d)
            .is_ok());
    }

    /// The landmark admission rule under seeded scripts of jams, jams
    /// easing part-way, jams clearing to the base cost (all patched) and
    /// decreases that undercut the build-time cost (rebuilt): after
    /// every install v4 equals the oracle and no bound exceeds the true
    /// distance — over one-way freeway carriageways too.
    #[test]
    fn landmark_tables_stay_admissible_across_increase_and_decrease_scripts() {
        use atis_algorithms::memory::dijkstra_pair;
        use atis_algorithms::AStarVersion;
        use atis_graph::{Metro, MetroSpec, SplitMix64};
        use atis_preprocess::{LandmarkTables, PreprocessConfig};

        for seed in [3u64, 1993] {
            let metro = Metro::new(MetroSpec::new(2, 2, seed)).unwrap();
            let graph = metro.graph();
            let tables = LandmarkTables::build(graph, PreprocessConfig::grid_default()).unwrap();
            let epochs = store(Database::open(graph).unwrap().with_landmarks(tables));
            let edges: Vec<_> = graph.edges().copied().collect();
            let n = graph.node_count() as u64;
            let mut rng = SplitMix64::new(seed);
            let (mut patched_decreases, mut rebuilds) = (0, 0);
            for step in 0..24 {
                let e = edges[rng.next_below(edges.len() as u64) as usize];
                let script = [
                    (e.cost * 4.0, LandmarkRefresh::Patched),
                    (e.cost * 2.0, LandmarkRefresh::Patched),
                    (e.cost, LandmarkRefresh::Patched),
                    (e.cost * 0.25, LandmarkRefresh::Rebuilt),
                ];
                // Every sixth edge goes all the way below its base cost.
                let len = if step % 6 == 5 { 4 } else { 3 };
                for &(cost, expect) in &script[..len] {
                    let up = epochs.update_edge_cost(e.from, e.to, cost).unwrap().update;
                    assert_eq!(up.landmarks, expect, "step {step}: {e:?} to {cost}");
                    if cost < up.old_cost {
                        match expect {
                            LandmarkRefresh::Patched => patched_decreases += 1,
                            _ => rebuilds += 1,
                        }
                    }
                    let snap = epochs.snapshot();
                    let lm = snap.db.landmarks().unwrap();
                    assert!(lm.is_current_for(snap.db.graph()));
                    for _ in 0..4 {
                        let s = NodeId(rng.next_below(n) as u32);
                        let d = NodeId(rng.next_below(n) as u32);
                        let oracle = dijkstra_pair(snap.db.graph(), s, d).unwrap();
                        assert!(
                            lm.lower_bound(s, d) <= oracle.cost + 1e-9,
                            "step {step}: bound {} > d({s:?},{d:?}) = {}",
                            lm.lower_bound(s, d),
                            oracle.cost
                        );
                        let t = snap
                            .db
                            .run(Algorithm::AStar(AStarVersion::V4), s, d)
                            .unwrap();
                        assert!((t.path_cost() - oracle.cost).abs() < 1e-3);
                    }
                }
            }
            assert!(patched_decreases >= 24 && rebuilds >= 4);
        }
    }

    #[test]
    fn cost_increase_and_cost_decrease_both_customize_the_hierarchy() {
        use atis_algorithms::AStarVersion;
        use atis_graph::{CostModel, Grid, QueryKind};
        use atis_hierarchy::{Hierarchy, HierarchyConfig};

        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 8).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let epochs = store(
            Database::open(grid.graph())
                .unwrap()
                .with_hierarchy(overlay),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));

        // Congestion: a customization pass re-prices the overlay — v5
        // answers exactly at the new epoch, never from stale shortcuts.
        let up = epochs.update_edge_cost(a, b, 9.0).unwrap().update;
        assert_eq!(up.hierarchy, HierarchyRefresh::Customized);
        let snap = epochs.snapshot();
        let h = snap.db.hierarchy().unwrap();
        assert!(h.is_current_for(snap.db.graph()));
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V5), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-9);

        // The jam clears: a decrease takes the same arm — re-priced,
        // not re-contracted.
        let down = epochs.update_edge_cost(a, b, 1.0).unwrap().update;
        assert_eq!(down.hierarchy, HierarchyRefresh::Customized);
        assert!(down.arcs_examined >= 1);
        let snap = epochs.snapshot();
        let h = snap.db.hierarchy().unwrap();
        assert!(h.is_current_for(snap.db.graph()));
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V5), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-9);
    }

    #[test]
    fn updates_without_artifacts_report_no_refresh() {
        let epochs = two_route_graph();
        let up = epochs
            .update_edge_cost(NodeId(0), NodeId(1), 3.0)
            .unwrap()
            .update;
        assert_eq!(up.hierarchy, HierarchyRefresh::None);
        assert_eq!(up.landmarks, LandmarkRefresh::None);
    }

    #[test]
    fn scaled_stores_answer_like_paper_stores_across_epochs() {
        use atis_graph::{Metro, MetroQuery, MetroSpec};
        use atis_storage::StorageProfile;

        let metro = Metro::new(MetroSpec::new(2, 2, 7)).unwrap();
        let profile = StorageProfile::for_nodes(metro.graph().node_count());
        let scaled = store(Database::open_with_profile(metro.graph(), profile).unwrap());
        assert!(scaled.snapshot().db.profile().is_segmented());
        let paper = store(Database::open(metro.graph()).unwrap());
        let (s, d) = metro.query_pair(MetroQuery::AdjacentCity);

        for epochs in [&scaled, &paper] {
            // Congest a street on the intra-city route, then run at the
            // new epoch.
            epochs
                .update_edge_cost(metro.node_at(0, 0, 8, 8), metro.node_at(0, 0, 8, 9), 40.0)
                .unwrap();
        }
        let a = scaled.snapshot();
        let b = paper.snapshot();
        assert_eq!(a.install(), b.install());
        let ra = a.db.run(Algorithm::Dijkstra, s, d).unwrap();
        let rb = b.db.run(Algorithm::Dijkstra, s, d).unwrap();
        // Same answer and the same *charged* I/O — the layouts differ
        // only in physical-read patterns.
        assert_eq!(
            ra.path.as_ref().unwrap().cost,
            rb.path.as_ref().unwrap().cost
        );
        assert_eq!(
            ra.path.as_ref().unwrap().nodes,
            rb.path.as_ref().unwrap().nodes
        );
    }

    #[test]
    fn updates_serialize_into_consecutive_epochs() {
        let epochs = two_route_graph();
        for i in 1..=5u64 {
            let upd = epochs
                .update_edge_cost(NodeId(0), NodeId(1), i as f64)
                .unwrap()
                .update;
            assert_eq!((upd.epoch, upd.updated), (i, 1));
            assert_eq!(upd.old_cost, (i as f64 - 1.0).max(1.0));
        }
        assert_eq!(epochs.snapshot().install(), 5);
        assert_eq!(
            epochs.snapshot().db.graph().edge_cost(NodeId(0), NodeId(1)),
            Some(5.0)
        );
    }
}

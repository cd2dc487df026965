//! What one traffic update does to an epoch's artifacts.
//!
//! The paper's serving scenario has many in-vehicle clients reading one
//! central map while live traffic updates trickle in. The store that
//! versions the map ([`crate::shard::ShardedEpochDb`]) installs every
//! update copy-on-write: readers pin an immutable snapshot, a writer
//! clones the current database, applies the cost change to the clone and
//! publishes it as the next install — so every answer has a well-defined
//! epoch and never mixes pre- and post-update edge costs.
//!
//! This module holds the part of an install that does not depend on how
//! installs are versioned: keeping the landmark (ALT) tables and the
//! contraction hierarchy current for the new costs
//! (`maintain_artifacts`), and the record an install reports back
//! ([`EpochUpdate`]).

use atis_algorithms::Database;

/// How an update maintained the snapshot's landmark (ALT) tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkRefresh {
    /// The database carries no landmark tables (or the update touched no
    /// edge), so there was nothing to maintain.
    None,
    /// Cost increase: the old tables stay admissible (old bounds
    /// under-estimate distances that only grew), so they were re-stamped
    /// for the new epoch without recomputation — degraded but sound.
    Patched,
    /// Cost decrease: stale bounds could overestimate, so the tables were
    /// rebuilt from scratch (2·k SSSP sweeps) before the epoch installed.
    Rebuilt,
    /// A required rebuild failed: the stale tables were left in place
    /// (marked not-current, so v4 fails typed and the degrade ladder
    /// serves v3 instead of wrong answers). The serving layer counts
    /// this against the landmark circuit breaker.
    RebuildFailed,
}

/// How an update maintained the snapshot's contraction hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyRefresh {
    /// The database carries no hierarchy (or the update touched no
    /// edge), so there was nothing to maintain.
    None,
    /// Cost increase: the overlay topology stays valid and a
    /// customization pass re-priced every shortcut for the new metric —
    /// exact but degraded (witness dormancy cleared, so v5 expands
    /// more arcs until the next re-contraction).
    Customized,
    /// Cost decrease: witness dormancy computed at the old metric could
    /// hide the now-cheaper shortcuts, so the hierarchy was
    /// re-contracted from scratch before the epoch installed.
    Recontracted,
    /// A required re-contraction failed: the stale hierarchy was left
    /// in place (marked not-current, so v5 fails typed and the degrade
    /// ladder serves v4/v3 instead of stale-priced shortcuts). Counted
    /// against the hierarchy circuit breaker.
    RebuildFailed,
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
}

/// Maintains a cloned snapshot's landmark (ALT) tables and contraction
/// hierarchy for an edge-cost change from `old_cost` to `new_cost`:
/// increases patch/customize (cheap, degraded-but-sound), decreases
/// rebuild/re-contract (a failure leaves the stale artifact in place,
/// marked not-current, so the degrade ladder serves a lower rung).
///
/// Artifacts are whole-graph, so this is independent of how many shards
/// [`crate::shard::ShardedEpochDb`] versions the install by.
pub(crate) fn maintain_artifacts(
    mut next: Database,
    old_cost: f64,
    new_cost: f64,
) -> (Database, LandmarkRefresh, HierarchyRefresh) {
    let mut landmarks = LandmarkRefresh::None;
    let mut hierarchy = HierarchyRefresh::None;
    if let Some(overlay) = next.hierarchy().cloned() {
        if new_cost >= old_cost {
            // Congestion: the overlay topology is metric-independent,
            // so a customization pass re-prices every shortcut
            // exactly — no re-contraction needed.
            let customized = overlay.customized_for(next.graph());
            next = next.with_hierarchy(customized);
            hierarchy = HierarchyRefresh::Customized;
        } else {
            match overlay.rebuild_for(next.graph()) {
                Ok(fresh) => {
                    next = next.with_hierarchy(fresh);
                    hierarchy = HierarchyRefresh::Recontracted;
                }
                // Leave the stale hierarchy in place — v5 then
                // fails typed and the ladder serves v4/v3:
                // degraded service, never a stale-priced
                // shortcut.
                Err(_) => hierarchy = HierarchyRefresh::RebuildFailed,
            }
        }
    }
    if let Some(tables) = next.landmarks().cloned() {
        if new_cost >= old_cost {
            let patched = tables.patched_for(next.graph());
            next = next.with_landmarks(patched);
            landmarks = LandmarkRefresh::Patched;
        } else {
            match tables.rebuild_for(next.graph()) {
                Ok(fresh) => {
                    next = next.with_landmarks(fresh);
                    landmarks = LandmarkRefresh::Rebuilt;
                }
                // Leave the stale tables in place — v4 then
                // fails typed and the degrade ladder serves v3:
                // degraded service, not wrong answers. Reported
                // so the serving layer can trip its landmark
                // breaker instead of re-attempting the rebuild
                // on every subsequent update.
                Err(_) => landmarks = LandmarkRefresh::RebuildFailed,
            }
        }
    }
    (next, landmarks, hierarchy)
}

#[cfg(test)]
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

        // Congestion: patched, degraded, and v4 still answers optimally
        // at the new epoch.
        let up = epochs.update_edge_cost(a, b, 9.0).unwrap().update;
        assert_eq!(up.landmarks, LandmarkRefresh::Patched);
        let snap = epochs.snapshot();
        let lm = snap.db.landmarks().unwrap();
        assert!(lm.is_current_for(snap.db.graph()) && lm.is_degraded());
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V4), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-3);

        // The jam clears: a cost decrease forces a rebuild, clearing the
        // degraded flag.
        let down = epochs.update_edge_cost(a, b, 1.0).unwrap().update;
        assert_eq!(down.landmarks, LandmarkRefresh::Rebuilt);
        let snap = epochs.snapshot();
        let lm = snap.db.landmarks().unwrap();
        assert!(lm.is_current_for(snap.db.graph()) && !lm.is_degraded());
        assert!(snap
            .db
            .run(Algorithm::AStar(AStarVersion::V4), s, d)
            .is_ok());
    }

    #[test]
    fn cost_increase_customizes_the_hierarchy_cost_decrease_recontracts() {
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
        assert!(h.is_current_for(snap.db.graph()) && h.is_degraded());
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V5), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-9);

        // The jam clears: a decrease re-contracts, restoring witness
        // dormancy (the degraded flag drops).
        let down = epochs.update_edge_cost(a, b, 1.0).unwrap().update;
        assert_eq!(down.hierarchy, HierarchyRefresh::Recontracted);
        let snap = epochs.snapshot();
        let h = snap.db.hierarchy().unwrap();
        assert!(h.is_current_for(snap.db.graph()) && !h.is_degraded());
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
        assert_eq!(epochs.install(), 5);
        assert_eq!(
            epochs.snapshot().db.graph().edge_cost(NodeId(0), NodeId(1)),
            Some(5.0)
        );
    }
}

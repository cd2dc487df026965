//! The epoch store: one database, versioned per shard so an `UPDATE`
//! does not stop the world.
//!
//! Stamping every install with a single epoch number makes *every*
//! update look like it touched the whole network: the route cache must
//! sweep (and re-stamp) every entry, and a cached route between two
//! untouched suburbs misses just because a street jammed on the other
//! side of the city.
//!
//! Sharding splits the serving state along the storage engine's own
//! [`PartitionMap`] region groups ([`ShardMap`]): each shard carries its
//! own version counter, and a cost *increase* bumps only the shards
//! whose blocks it touches — the endpoints' shards — plus one global
//! *install* counter that totally orders installs. A cost *decrease*
//! can create a better route between any two nodes, so it bumps every
//! shard. With [`ShardMap::single`] every update touches the one shard
//! and the scheme is exactly the single global epoch.
//!
//! ## The epoch-vector consistency rule
//!
//! A query pins one [`ShardSnapshot`]: the `Arc<Database>` plus the
//! whole [`EpochVector`] it was installed with, taken under one lock
//! acquisition. Because the database and the vector are replaced
//! together atomically, every cross-shard route runs against *one*
//! consistent vector — it can never observe shard 3 at version 5 and
//! shard 4 at version 4 from two different installs. Answers carry the
//! snapshot's install counter, which plays the role the scalar epoch
//! played before: a total order on what the answer reflects.
//!
//! Cached routes are then validated per shard: an entry stamped with
//! the versions of the shards its path crosses is still exact at a
//! later snapshot as long as those per-shard versions are unchanged —
//! updates elsewhere provably cannot have touched it (see `cache.rs`
//! for the full invalidation rule).
//!
//! The database itself stays whole-graph (one `Arc<Database>` per
//! install): sharding versions the *validity* of derived state, it does
//! not split the storage engine. Landmark tables and the contraction
//! hierarchy remain whole-graph epoch artifacts, maintained per install
//! by `maintain_artifacts`.
//!
//! ## The install path
//!
//! Two locks, taken in this order and never the other way round: the
//! *writer* lock serialises installs and is held for a whole one; the
//! *current* lock guards the published snapshot and is held for a
//! pointer clone (readers) or a pointer swap (the writer). An install
//! is: take the writer lock → pin the current snapshot → clone its
//! database (a persistent structure: the clone shares every chunk) →
//! apply the update and maintain the artifacts on the clone, copying
//! the chunks written → swap the result in under the current lock.
//! Nothing a reader waits on is held while the install is built, and
//! since only the writer-lock holder ever replaces `current`, the
//! snapshot an install was built from is still the current one when it
//! publishes.

use crate::epoch::{maintain_artifacts, EpochUpdate, HierarchyRefresh, LandmarkRefresh};
use crate::sync::{self, Arc, Mutex, MutexGuard};
use atis_algorithms::{AlgorithmError, Database};
use atis_graph::{Graph, NodeId, PartitionMap};

/// Region size the partitioner targets when building shard maps — the
/// workspace convention (storage blocks, hierarchy ordering, scaling
/// bench all partition at 256).
const REGION_TARGET: usize = 256;

/// Maps every node to a serving shard: a contiguous group of
/// [`PartitionMap`] regions.
///
/// Shards follow the storage layout on purpose: regions are
/// block-aligned (PR 7's class-aware BFS partitioning), so the shards
/// whose versions an update bumps are exactly the region groups whose
/// blocks it dirtied.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shard_of: Vec<u32>,
    shards: u32,
}

impl ShardMap {
    /// The trivial one-shard map (every node in shard 0) — the global
    /// epoch scheme expressed in shard form.
    pub fn single(nodes: usize) -> Self {
        ShardMap {
            shard_of: vec![0; nodes],
            shards: 1,
        }
    }

    /// Partitions `graph` into (at most) `shards` region groups: the
    /// storage partitioner grows block-aligned regions, which are then
    /// grouped contiguously. Deterministic for a given graph.
    pub fn build(graph: &Graph, shards: usize) -> Self {
        if shards <= 1 || graph.node_count() == 0 {
            return Self::single(graph.node_count());
        }
        let partition = PartitionMap::build(graph, REGION_TARGET);
        let regions = partition.region_count().max(1);
        let shards = shards.min(regions) as u32;
        let shard_of = (0..graph.node_count())
            .map(|id| {
                let region = partition.region_of(NodeId(id as u32)) as u64;
                (region * shards as u64 / regions as u64) as u32
            })
            .collect();
        ShardMap { shard_of, shards }
    }

    /// The shard owning `node` (unknown ids map to shard 0, matching
    /// the engine's treatment of out-of-range keys as errors upstream).
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// The sorted, deduplicated set of shards a node sequence (a path)
    /// crosses.
    pub fn path_shards(&self, nodes: &[NodeId]) -> Vec<u32> {
        let mut shards: Vec<u32> = nodes.iter().map(|&n| self.shard_of(n)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// Per-shard versions plus the global install counter, frozen at one
/// install. Immutable once published (readers share it by `Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochVector {
    install: u64,
    versions: Vec<u64>,
}

impl EpochVector {
    fn new(shards: usize) -> Self {
        EpochVector {
            install: 0,
            versions: vec![0; shards.max(1)],
        }
    }

    /// Direct constructor for in-crate tests of the stamped cache.
    #[cfg(test)]
    pub(crate) fn with_versions(install: u64, versions: Vec<u64>) -> Self {
        EpochVector { install, versions }
    }

    /// The global install counter: a total order on installs, and the
    /// number every answer reports as its epoch.
    pub fn install(&self) -> u64 {
        self.install
    }

    /// The version of one shard (unknown shards read 0).
    pub fn version(&self, shard: u32) -> u64 {
        self.versions.get(shard as usize).copied().unwrap_or(0)
    }

    /// All per-shard versions, indexed by shard id.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Number of shards in the vector.
    pub fn shard_count(&self) -> usize {
        self.versions.len()
    }
}

/// An immutable view of the sharded serving state at one install: the
/// database plus the epoch vector it was installed with, taken together
/// under one lock acquisition (the consistency rule).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The database frozen at this install.
    pub db: Arc<Database>,
    /// The per-shard versions this database reflects.
    pub epochs: Arc<EpochVector>,
}

impl ShardSnapshot {
    /// The snapshot's global install counter (the answer epoch).
    pub fn install(&self) -> u64 {
        self.epochs.install()
    }
}

/// The result of installing one traffic update on sharded state.
#[derive(Debug, Clone)]
pub struct ShardedUpdate {
    /// The classic update record; `update.epoch` is the new global
    /// install counter.
    pub update: EpochUpdate,
    /// The shards whose versions this install bumped (sorted, deduped):
    /// the endpoints' shards for an increase, every shard for a decrease.
    pub shards: Vec<u32>,
    /// The epoch vector after the install.
    pub epochs: Arc<EpochVector>,
}

/// A database versioned by a per-shard epoch vector: lock-briefly
/// reads, copy-on-write updates built outside the lock readers take,
/// which bump only the shards whose cached routes the update can have
/// changed.
#[derive(Debug)]
pub struct ShardedEpochDb {
    map: Arc<ShardMap>,
    /// Serialises installs; whoever holds it is the only thread that
    /// may replace `current`.
    writer: Mutex<()>,
    current: Mutex<ShardSnapshot>,
}

impl ShardedEpochDb {
    /// Wraps a freshly loaded database as install 0 with every shard at
    /// version 0.
    pub fn new(db: Database, map: ShardMap) -> Self {
        let shards = map.shard_count();
        ShardedEpochDb {
            map: Arc::new(map),
            writer: Mutex::new(()),
            current: Mutex::new(ShardSnapshot {
                db: Arc::new(db),
                epochs: Arc::new(EpochVector::new(shards)),
            }),
        }
    }

    /// Designated acquirer for the install lock (rank 2 in the declared
    /// lock order — see `sync.rs` and `atis-analyze rules`): taken
    /// before `lock_current`, never while holding it.
    fn lock_writer(&self) -> MutexGuard<'_, ()> {
        sync::lock(&self.writer)
    }

    /// Designated acquirer for the epoch slot (rank 3 in the declared
    /// lock order).
    fn lock_current(&self) -> MutexGuard<'_, ShardSnapshot> {
        sync::lock(&self.current)
    }

    /// The node-to-shard map this store versions by.
    pub fn map(&self) -> &Arc<ShardMap> {
        &self.map
    }

    /// The current `(database, epoch vector)` pair. Queries must use
    /// the returned snapshot for *all* their reads — re-fetching
    /// mid-query is exactly the torn-answer bug snapshots prevent, and
    /// mixing two snapshots' vectors breaks the consistency rule.
    pub fn snapshot(&self) -> ShardSnapshot {
        self.lock_current().clone()
    }

    /// The current global install counter.
    pub fn install(&self) -> u64 {
        self.lock_current().epochs.install()
    }

    /// Applies a traffic update copy-on-write: clones the current
    /// database, updates edge `(u, v)` on the clone, and installs it
    /// with the install counter and the affected shards' versions
    /// bumped. Running queries keep their old snapshots; queries
    /// admitted after this call see the new costs. Installs serialise on
    /// the writer lock; readers are held up only for the pointer swap at
    /// the end (see the [module docs](self)).
    ///
    /// A cost *increase* can only invalidate routes that use the edge,
    /// so it bumps the endpoints' shards; the others keep their
    /// versions, which is what lets the cache carry their routes across
    /// the install without a sweep. A cost *decrease* can undercut a
    /// route that never comes near the edge, so it bumps every shard:
    /// nothing validated before it hits until the sweep has looked at
    /// it, and a late pre-decrease worker cannot re-admit its route.
    ///
    /// An update that touches no tuple — a valid pair with no edge
    /// between it — installs nothing: the report carries the current
    /// install, `updated: 0` and no shards, and there is nothing for a
    /// cache to sweep.
    ///
    /// Landmark tables and the contraction hierarchy are whole-graph
    /// artifacts, so their refresh (`maintain_artifacts`: re-price what
    /// the edge can reach in the overlay; re-stamp the tables, or
    /// rebuild them when the new cost undercuts one) is keyed to the
    /// install, not to a shard.
    ///
    /// # Errors
    /// Fails for unknown endpoints or invalid costs; the current
    /// install is left untouched.
    pub fn update_edge_cost(
        &self,
        u: NodeId,
        v: NodeId,
        cost: f64,
    ) -> Result<ShardedUpdate, AlgorithmError> {
        let _writer = self.lock_writer();
        let base = self.snapshot();
        if !base.db.graph().contains(u) {
            return Err(AlgorithmError::UnknownSource(u));
        }
        if !base.db.graph().contains(v) {
            return Err(AlgorithmError::UnknownDestination(v));
        }
        let old_cost = base.db.graph().edge_cost(u, v).unwrap_or(f64::INFINITY);
        let mut update = EpochUpdate {
            epoch: base.install(),
            updated: 0,
            old_cost,
            new_cost: cost,
            landmarks: LandmarkRefresh::None,
            hierarchy: HierarchyRefresh::None,
            arcs_examined: 0,
        };
        let mut next: Database = (*base.db).clone();
        update.updated = next.update_edge_cost(u, v, cost)?;
        if update.updated == 0 {
            // `next` wrote nothing, so it copied nothing; drop it.
            return Ok(ShardedUpdate {
                update,
                shards: Vec::new(),
                epochs: base.epochs,
            });
        }
        (
            next,
            update.landmarks,
            update.hierarchy,
            update.arcs_examined,
        ) = maintain_artifacts(next, base.db.graph(), (u, v), cost);
        let shards: Vec<u32> = if cost < old_cost {
            (0..self.map.shards).collect()
        } else {
            self.map.path_shards(&[u, v])
        };
        let mut epochs: EpochVector = (*base.epochs).clone();
        epochs.install += 1;
        for &s in &shards {
            if let Some(version) = epochs.versions.get_mut(s as usize) {
                *version += 1;
            }
        }
        update.epoch = epochs.install;
        let epochs: Arc<EpochVector> = Arc::new(epochs);
        let next = ShardSnapshot {
            db: Arc::new(next),
            epochs: epochs.clone(),
        };
        // Only the writer-lock holder replaces `current`, so `base` is
        // still what is published: this swap loses no install. (`base`
        // also keeps the old snapshot alive, so nothing is freed here.)
        *self.lock_current() = next;
        Ok(ShardedUpdate {
            update,
            shards,
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_algorithms::Algorithm;
    use atis_graph::{CostModel, Grid, QueryKind};

    // 32×32 = 1024 nodes: four-plus regions at the 256 target, so a
    // 4-shard map is genuinely multi-shard.
    fn grid_store(shards: usize) -> (ShardedEpochDb, Grid) {
        let grid = Grid::new(32, CostModel::TWENTY_PERCENT, 7).unwrap();
        let map = ShardMap::build(grid.graph(), shards);
        let db = Database::open(grid.graph()).unwrap();
        (ShardedEpochDb::new(db, map), grid)
    }

    #[test]
    fn shard_map_covers_every_node_and_respects_the_bound() {
        let grid = Grid::new(32, CostModel::TWENTY_PERCENT, 7).unwrap();
        let map = ShardMap::build(grid.graph(), 4);
        assert!(map.shard_count() >= 1 && map.shard_count() <= 4);
        let mut seen = vec![false; map.shard_count()];
        for id in 0..grid.graph().node_count() {
            let s = map.shard_of(NodeId(id as u32));
            assert!((s as usize) < map.shard_count());
            seen[s as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every shard must own at least one node"
        );
    }

    #[test]
    fn single_map_is_the_global_scheme() {
        let map = ShardMap::single(16);
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.shard_of(NodeId(7)), 0);
        assert_eq!(map.path_shards(&[NodeId(1), NodeId(9)]), vec![0]);
    }

    #[test]
    fn updates_bump_only_the_touched_shards() {
        let (store, grid) = grid_store(4);
        let map = store.map().clone();
        let u = grid.node_at(0, 0);
        let v = grid.node_at(0, 1);
        let before = store.snapshot();
        let upd = store.update_edge_cost(u, v, 9.0).unwrap();
        assert_eq!(upd.update.epoch, 1);
        assert_eq!(upd.shards, map.path_shards(&[u, v]));
        let after = store.snapshot();
        assert_eq!(after.install(), 1);
        for s in 0..map.shard_count() as u32 {
            let expect = if upd.shards.contains(&s) {
                before.epochs.version(s) + 1
            } else {
                before.epochs.version(s)
            };
            assert_eq!(after.epochs.version(s), expect, "shard {s}");
        }
        // At least one shard must be untouched on a 4-shard grid for a
        // corner-local update.
        assert!(upd.shards.len() < map.shard_count());
    }

    /// A decrease can undercut a route anywhere, so an entry whose path
    /// avoids the edge's shards must not be served (or re-admitted) on
    /// the strength of its own shards' versions.
    #[test]
    fn a_decrease_bumps_every_shard_so_far_entries_neither_hit_nor_return() {
        use crate::cache::{CachedRoute, RouteCache};

        let (store, grid) = grid_store(4);
        let map = store.map().clone();
        let cache = RouteCache::new(8);
        let (s, d) = (grid.node_at(0, 0), grid.node_at(0, 1));
        let (u, v) = (grid.node_at(31, 30), grid.node_at(31, 31));
        let near = map.path_shards(&[s, d]);
        assert!(map.path_shards(&[u, v]).iter().all(|f| !near.contains(f)));
        let before = store.snapshot();
        // What a worker pinned to `before` inserts, early or late.
        let insert = || {
            let path = atis_graph::Path {
                nodes: vec![s, d],
                cost: before.db.graph().edge_cost(s, d).unwrap(),
            };
            let route = CachedRoute {
                path,
                epoch: before.install(),
                iterations: 1,
                cost_units: 1.0,
            };
            let stamps = near.iter().map(|&n| (n, before.epochs.version(n)));
            cache.insert_stamped(s, d, route, stamps.collect());
        };
        insert();
        assert!(cache.lookup_vec(s, d, &before.epochs).is_some());

        let upd = store.update_edge_cost(u, v, 0.01).unwrap();
        assert_eq!(upd.shards.len(), map.shard_count());
        let after = store.snapshot().epochs;
        assert!(
            cache.lookup_vec(s, d, &after).is_none(),
            "hit between the install and the sweep"
        );
        let (old, new) = (upd.update.old_cost, upd.update.new_cost);
        let swept = cache.apply_shard_update(u, v, old, new, &upd.shards, &upd.epochs);
        assert_eq!(swept, (1, 0), "0.01 undercuts the cached total");
        insert();
        assert!(
            cache.lookup_vec(s, d, &after).is_none(),
            "a pre-decrease worker re-admitted its route after the sweep"
        );
    }

    #[test]
    fn snapshots_pin_database_and_vector_together() {
        let (store, grid) = grid_store(4);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let before = store.snapshot();
        let path = before
            .db
            .run(Algorithm::Dijkstra, s, d)
            .unwrap()
            .path
            .unwrap();
        let (u, v) = path.hops().next().unwrap();
        store.update_edge_cost(u, v, 500.0).unwrap();
        // The pinned snapshot still answers with pre-update costs and
        // its own vector — never a mix.
        assert_eq!(before.install(), 0);
        let replay = before.db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert_eq!(replay.path.unwrap().nodes, path.nodes);
        let after = store.snapshot();
        assert_eq!(after.install(), 1);
        assert_ne!(
            after.db.graph().edge_cost(u, v),
            before.db.graph().edge_cost(u, v)
        );
    }

    #[test]
    fn failed_updates_do_not_advance_the_install() {
        let (store, _) = grid_store(4);
        assert!(store
            .update_edge_cost(NodeId(0), NodeId(1), f64::NAN)
            .is_err());
        assert!(store
            .update_edge_cost(NodeId(60000), NodeId(1), 1.0)
            .is_err());
        assert_eq!(store.install(), 0);
    }
}

//! The invalidation-aware route cache.
//!
//! Keyed by `(from, to)` and validated against the querying snapshot's
//! [`crate::shard::EpochVector`]: a lookup only hits when the cached
//! entry was computed at — or proven unaffected up to — that snapshot,
//! so a cache hit is *bit-identical* to rerunning the algorithm against
//! it. A one-shard service and an eight-shard one run the same rule;
//! with one shard every update touches "the" shard and the rule is the
//! classic global-epoch sweep.
//!
//! ## Validation (stamps)
//!
//! * [`RouteCache::insert_stamped`] stores, alongside the answer, one
//!   `(shard, version)` stamp per shard the path crosses, taken from the
//!   vector of the snapshot it was computed against.
//! * [`RouteCache::lookup_vec`] hits iff every stamp still matches the
//!   querying snapshot's vector and the entry is not from a later
//!   install than the snapshot. A cost increase bumps only the shards of
//!   the edge's endpoints, so an entry whose path never enters them
//!   keeps hitting across that install *without ever being rewritten*;
//!   a decrease bumps every shard, so nothing validated before it hits
//!   until the sweep below has looked at it.
//!
//! ## Invalidation rule
//!
//! A traffic update changes directed edge `(u, v)` from `old_cost` to
//! `new_cost`, bumps `shards` and installs the next vector.
//! [`RouteCache::apply_shard_update`] then examines every entry whose
//! stamp set intersects `shards` (all of them after a decrease; after an
//! increase the others cannot use the edge) and either **drops** or
//! **promotes** it:
//!
//! * dropped if its path uses the hop `(u, v)` — the answer's cost is
//!   definitely stale; or
//! * dropped if the cost went *down* and `new_cost < path.cost` — with
//!   non-negative edge costs any route through `(u, v)` costs at least
//!   `new_cost`, so only then could the update have created a better
//!   route than the cached one (a pure increase can only raise route
//!   costs, so an off-path entry stays optimal whatever the new cost);
//!   or
//! * promoted otherwise: the update provably cannot change this answer,
//!   and its touched stamps move to the new versions without
//!   recomputation.
//!
//! Each install bumps a touched shard by exactly one, so an examined
//! entry's touched stamps say where it stands: already at the new
//! versions (computed against the new costs — left alone), one behind
//! (the case above), or further behind — the sweep for an earlier
//! install has not seen it yet (concurrent updaters sweep outside the
//! install lock, in any order), and it is dropped as stale: promotion is
//! only sound for entries that have seen every update so far. For the
//! same reason an insert stamped below a version a sweep has already
//! installed (a worker finishing late against an old snapshot) is
//! refused.
//!
//! Unreachable results are not cached: cost updates cannot change
//! reachability, but a `None` path has no edges for the rule to inspect,
//! and misses on unreachable pairs are cheap to recompute.
//!
//! ## Eviction
//!
//! The cache is LRU-bounded: when full, an insert evicts the
//! least-recently-used entry (ties broken by smaller key, so eviction is
//! deterministic). Capacity 0 disables the cache entirely.
//!
//! ## The stale tier
//!
//! Entries an update sweep invalidates are not discarded: they retire
//! into a separate, equally bounded *stale* map, keyed `(from, to)` and
//! still carrying the epoch they were computed at. The live cache never
//! serves them — [`RouteCache::lookup_vec`] is exact — but when
//! the degrade ladder has nothing better (storage breaker open, every
//! rung failed), `RouteCache::lookup_stale` can serve one as an
//! explicitly tagged `STALE k` answer: a road that existed `k` epochs
//! ago beats no road at all for a traveller already driving. The stale
//! tier is invisible to [`RouteCache::len`] / [`RouteCache::is_empty`]
//! and to the hit/miss counters; it has its own `stale_hits` /
//! `retirements` statistics.

use crate::shard::EpochVector;
use crate::sync::{self, Entries, Level, LockBefore, Locked, Mutex, Unlocked};
use atis_graph::{NodeId, Path};
use atis_obs::SharedRegistry;
use std::collections::HashMap;

/// A cached answer: the route plus the run statistics it was computed
/// with (reported back to clients on a hit).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRoute {
    /// The computed route.
    pub path: Path,
    /// Epoch the answer is valid at (advanced by promotions).
    pub epoch: u64,
    /// Iterations of the original run.
    pub iterations: u64,
    /// Simulated I/O cost of the original run (Table 4A units).
    pub cost_units: f64,
}

/// Monotonic cache statistics (also mirrored into the metrics registry
/// as `cache_hits_total` / `cache_misses_total` /
/// `cache_invalidations_total` when one is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (absent key or epoch mismatch).
    pub misses: u64,
    /// Entries dropped by update sweeps (rule-invalidated or stale).
    pub invalidations: u64,
    /// Entries accepted by `insert`.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries carried across an epoch bump without recomputation.
    pub promotions: u64,
    /// Invalidated entries retired into the stale tier.
    pub retirements: u64,
    /// Degraded lookups answered from the stale tier.
    pub stale_hits: u64,
}

#[derive(Debug)]
struct Entry {
    route: CachedRoute,
    /// `(shard, version)` per shard the path crosses, sorted by shard.
    stamps: Vec<(u32, u64)>,
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<(u32, u32), Entry>,
    /// Retired (invalidated) routes, still at the epoch they were
    /// computed at — the stale-serve tier. Bounded by the same capacity
    /// as the live map; never counted by `len` / `is_empty`.
    stale: HashMap<(u32, u32), CachedRoute>,
    tick: u64,
    /// Highest per-shard version an [`RouteCache::apply_shard_update`]
    /// sweep has installed, indexed by shard; stamped inserts below any
    /// of them are stale and refused.
    latest_versions: Vec<u64>,
    stats: CacheStats,
}

impl Inner {
    fn latest_version(&self, shard: u32) -> u64 {
        self.latest_versions
            .get(shard as usize)
            .copied()
            .unwrap_or(0)
    }
}

/// A bounded, invalidation-aware LRU cache of computed routes.
#[derive(Debug)]
pub struct RouteCache {
    capacity: usize,
    inner: Mutex<Inner>,
    metrics: Option<SharedRegistry>,
}

impl RouteCache {
    /// A cache holding at most `capacity` routes (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        RouteCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                stale: HashMap::new(),
                tick: 0,
                latest_versions: Vec::new(),
                stats: CacheStats::default(),
            }),
            metrics: None,
        }
    }

    /// Mirrors the hit/miss/invalidation counters into `metrics`
    /// (`cache_hits_total`, `cache_misses_total`,
    /// `cache_invalidations_total`).
    pub fn with_metrics(mut self, metrics: SharedRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Designated acquirer for the cache table (rank 4, `sync::Entries`).
    fn lock_entries<'a, L: LockBefore<Entries>>(
        &'a self,
        level: &'a mut Level<L>,
    ) -> Locked<'a, Inner, Entries> {
        sync::lock(level, &self.inner)
    }

    fn bump(&self, name: &str, n: u64) {
        if n > 0 {
            if let Some(m) = &self.metrics {
                m.add(name, n);
            }
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.lock_entries(&mut Level::root()).0.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lock_entries(&mut Level::root()).0.map.is_empty()
    }

    /// A copy of the monotonic statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock_entries(&mut Level::root()).0.stats
    }

    /// Looks up `(from, to)` against a snapshot's epoch vector: a hit
    /// requires every shard the cached path crosses to still be at the
    /// version the entry was last validated at, and the entry not to
    /// come from a later install than the snapshot (a worker still
    /// pinned to an older snapshot must not be served a route computed
    /// after an increase it cannot see). The returned route keeps the
    /// install it was computed (or last promoted) at — older than the
    /// snapshot's when the intervening updates provably missed the
    /// path's shards.
    pub fn lookup_vec(
        &self,
        from: NodeId,
        to: NodeId,
        epochs: &EpochVector,
    ) -> Option<CachedRoute> {
        self.lookup_vec_at(&mut Level::root(), from, to, epochs)
    }

    pub(crate) fn lookup_vec_at(
        &self,
        level: &mut Level<Unlocked>,
        from: NodeId,
        to: NodeId,
        epochs: &EpochVector,
    ) -> Option<CachedRoute> {
        if self.capacity == 0 {
            return None;
        }
        let (mut inner, _) = self.lock_entries(level);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(from.0, to.0)) {
            Some(entry)
                if entry.route.epoch <= epochs.install()
                    && entry
                        .stamps
                        .iter()
                        .all(|&(shard, version)| epochs.version(shard) == version) =>
            {
                entry.last_used = tick;
                let route = entry.route.clone();
                inner.stats.hits += 1;
                drop(inner);
                self.bump("cache_hits_total", 1);
                Some(route)
            }
            _ => {
                inner.stats.misses += 1;
                drop(inner);
                self.bump("cache_misses_total", 1);
                None
            }
        }
    }

    /// Inserts a computed route stamped with the `(shard, version)` pairs
    /// of the snapshot it was computed against (`route.epoch` carries the
    /// snapshot's install counter). Refused when the cache is disabled,
    /// when any stamp predates a version an update sweep has already
    /// installed for that shard (a racing worker finishing against an old
    /// snapshot), or when a newer entry for the key is present.
    pub fn insert_stamped(
        &self,
        from: NodeId,
        to: NodeId,
        route: CachedRoute,
        stamps: Vec<(u32, u64)>,
    ) {
        self.insert_stamped_at(&mut Level::root(), from, to, route, stamps);
    }

    pub(crate) fn insert_stamped_at(
        &self,
        level: &mut Level<Unlocked>,
        from: NodeId,
        to: NodeId,
        route: CachedRoute,
        stamps: Vec<(u32, u64)>,
    ) {
        if self.capacity == 0 || stamps.is_empty() {
            return;
        }
        let (mut inner, _) = self.lock_entries(level);
        if stamps
            .iter()
            .any(|&(shard, version)| version < inner.latest_version(shard))
        {
            return;
        }
        if let Some(existing) = inner.map.get(&(from.0, to.0)) {
            if existing.route.epoch > route.epoch {
                return;
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&(from.0, to.0)) {
            // Deterministic LRU eviction: oldest tick, then smallest key.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(key, entry)| (entry.last_used, **key))
                .map(|(key, _)| *key);
            if let Some(victim) = victim {
                inner.map.remove(&victim);
                inner.stats.evictions += 1;
            }
        }
        inner.map.insert(
            (from.0, to.0),
            Entry {
                route,
                stamps,
                last_used: tick,
            },
        );
        inner.stats.insertions += 1;
    }

    /// Sweeps the cache for a traffic update: directed edge `(u, v)`
    /// went from `old_cost` to `new_cost`, bumping `shards` and
    /// installing the post-update vector `epochs`. Returns
    /// `(invalidated, promoted)`.
    ///
    /// Only entries whose stamp set intersects `shards` are examined —
    /// after an increase the others cannot use the edge and are not
    /// visited at all; a decrease bumps every shard, so every entry is.
    /// An examined entry drops if it is on the edge, if a decrease
    /// undercuts its total, or if it is stale (more than one version
    /// behind on a touched shard); otherwise its touched stamps move to
    /// the new versions.
    pub fn apply_shard_update(
        &self,
        u: NodeId,
        v: NodeId,
        old_cost: f64,
        new_cost: f64,
        shards: &[u32],
        epochs: &EpochVector,
    ) -> (u64, u64) {
        let level = &mut Level::root();
        self.apply_shard_update_at(level, (u, v), old_cost, new_cost, shards, epochs)
    }

    pub(crate) fn apply_shard_update_at(
        &self,
        level: &mut Level<Unlocked>,
        (u, v): (NodeId, NodeId),
        old_cost: f64,
        new_cost: f64,
        shards: &[u32],
        epochs: &EpochVector,
    ) -> (u64, u64) {
        if self.capacity == 0 {
            return (0, 0);
        }
        let decrease = new_cost < old_cost;
        let install = epochs.install();
        let (mut inner, _) = self.lock_entries(level);
        let mut invalidated = 0u64;
        let mut promoted = 0u64;
        let swept = std::mem::take(&mut inner.map);
        let mut retired: Vec<((u32, u32), CachedRoute)> = Vec::new();
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each entry's fate depends on that entry alone, and `retired` is sorted below"
        )]
        for (key, mut entry) in swept {
            // How far the entry's touched stamps trail this install.
            let behind = entry
                .stamps
                .iter()
                .filter(|(shard, _)| shards.contains(shard))
                .map(|&(shard, version)| epochs.version(shard).saturating_sub(version))
                .max();
            // The path never enters a touched shard, or the entry was
            // computed against the new costs: the update cannot have
            // changed it. Neither dropped nor rewritten.
            let Some(behind @ 1..) = behind else {
                inner.map.insert(key, entry);
                continue;
            };
            let stale = behind > 1;
            let on_path = entry.route.path.hops().any(|(a, b)| a == u && b == v);
            let could_beat = decrease && new_cost < entry.route.path.cost;
            if stale || on_path || could_beat {
                invalidated += 1;
                retired.push((key, entry.route));
            } else {
                for stamp in entry.stamps.iter_mut() {
                    if shards.contains(&stamp.0) {
                        stamp.1 = epochs.version(stamp.0);
                    }
                }
                entry.route.epoch = entry.route.epoch.max(install);
                promoted += 1;
                inner.map.insert(key, entry);
            }
        }
        // `retire` evicts against the tier as it stands, so the tier's
        // content depends on the order: retire in key order, not in the
        // per-instance hash order the sweep visited.
        retired.sort_unstable_by_key(|&(key, _)| key);
        for (key, route) in retired {
            self.retire(&mut inner, key, route);
        }
        for &shard in shards {
            let idx = shard as usize;
            if inner.latest_versions.len() <= idx {
                inner.latest_versions.resize(idx + 1, 0);
            }
            let version = epochs.version(shard);
            if let Some(slot) = inner.latest_versions.get_mut(idx) {
                if *slot < version {
                    *slot = version;
                }
            }
        }
        inner.stats.invalidations += invalidated;
        inner.stats.promotions += promoted;
        drop(inner);
        self.bump("cache_invalidations_total", invalidated);
        (invalidated, promoted)
    }

    /// Moves an invalidated route into the stale tier, keeping the
    /// newest retiree per key and evicting the oldest-epoch entry (ties
    /// broken by smaller key) when the tier is full.
    fn retire(&self, inner: &mut Inner, key: (u32, u32), route: CachedRoute) {
        if let Some(existing) = inner.stale.get(&key) {
            if existing.epoch > route.epoch {
                return;
            }
        }
        if inner.stale.len() >= self.capacity && !inner.stale.contains_key(&key) {
            let victim = inner
                .stale
                .iter()
                .min_by_key(|(k, r)| (r.epoch, **k))
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                inner.stale.remove(&victim);
            }
        }
        inner.stale.insert(key, route);
        inner.stats.retirements += 1;
    }

    /// Degraded lookup against the stale tier: returns a retired route
    /// for `(from, to)` together with its age in epochs, provided the
    /// age does not exceed `max_age`. The live hit/miss counters are
    /// untouched; a returned route is counted as a `stale_hit`. Only the
    /// degrade ladder's tail reads the tier.
    ///
    /// The caller must surface the age to the client (the `STALE k` wire
    /// tag) — a stale answer is explicitly degraded service, never
    /// passed off as current.
    pub(crate) fn lookup_stale(
        &self,
        level: &mut Level<Unlocked>,
        from: NodeId,
        to: NodeId,
        current_epoch: u64,
        max_age: u64,
    ) -> Option<(CachedRoute, u64)> {
        if self.capacity == 0 {
            return None;
        }
        let (mut inner, _) = self.lock_entries(level);
        let route = inner.stale.get(&(from.0, to.0))?.clone();
        let age = current_epoch.saturating_sub(route.epoch).max(1);
        if age > max_age {
            return None;
        }
        inner.stats.stale_hits += 1;
        drop(inner);
        self.bump("cache_stale_hits_total", 1);
        Some((route, age))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests drive the public API, which mints the root lock level"
)]
mod tests {
    use super::*;

    fn route(nodes: &[u32], cost: f64, epoch: u64) -> CachedRoute {
        CachedRoute {
            path: Path {
                nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
                cost,
            },
            epoch,
            iterations: 3,
            cost_units: 10.0,
        }
    }

    fn vector(install: u64, versions: &[u64]) -> EpochVector {
        EpochVector::with_versions(install, versions.to_vec())
    }

    /// The one-shard vector after `install` updates: every install
    /// bumps "the" shard.
    fn single(install: u64) -> EpochVector {
        vector(install, &[install])
    }

    /// Inserts `route` as a one-shard service would: one stamp, at the
    /// route's own install.
    fn insert(cache: &RouteCache, from: u32, to: u32, route: CachedRoute) {
        let stamps = vec![(0, route.epoch)];
        cache.insert_stamped(NodeId(from), NodeId(to), route, stamps);
    }

    /// A one-shard update `old -> new` on `(u, v)` installing `install`.
    fn update(cache: &RouteCache, u: u32, v: u32, old: f64, new: f64, install: u64) -> (u64, u64) {
        cache.apply_shard_update(NodeId(u), NodeId(v), old, new, &[0], &single(install))
    }

    #[test]
    fn direction_matters_for_the_on_path_test() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        // (1,0) is the reverse hop — not on the directed path — so even
        // a decrease survives when it does not undercut the total.
        assert_eq!(update(&cache, 1, 0, 60.0, 50.0, 1), (0, 1));
        let hit = cache.lookup_vec(NodeId(0), NodeId(3), &single(1)).unwrap();
        assert_eq!(hit.epoch, 1, "promotion advances the install");
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let cache = RouteCache::new(2);
        insert(&cache, 0, 1, route(&[0, 1], 1.0, 0));
        insert(&cache, 0, 2, route(&[0, 2], 1.0, 0));
        // Touch (0,1) so (0,2) is the LRU victim.
        assert!(cache.lookup_vec(NodeId(0), NodeId(1), &single(0)).is_some());
        insert(&cache, 0, 3, route(&[0, 3], 1.0, 0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup_vec(NodeId(0), NodeId(2), &single(0)).is_none());
        assert!(cache.lookup_vec(NodeId(0), NodeId(1), &single(0)).is_some());
        assert!(cache.lookup_vec(NodeId(0), NodeId(3), &single(0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stale_inserts_are_refused() {
        let cache = RouteCache::new(8);
        // A sweep installs shard 0 at version 2.
        let v = vector(1, &[2]);
        cache.apply_shard_update(NodeId(0), NodeId(1), 1.0, 9.0, &[0], &v);
        // A worker that computed against shard 0 @ version 1 finishes
        // late: refused.
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 7.0, 0), vec![(0, 1)]);
        assert!(cache.is_empty());
        // At the swept version it is accepted.
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 7.0, 1), vec![(0, 2)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_sweep_drops_entries_an_earlier_sweep_has_not_seen() {
        let cache = RouteCache::new(8);
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        insert(&cache, 6, 7, route(&[6, 7], 7.0, 2));
        // Two updaters installed 1 and 2; the sweep for 2 runs first.
        // The install-0 entry has not been checked against update 1, so
        // it may not be promoted past it; the install-2 entry was
        // computed against both and is left alone by either sweep.
        assert_eq!(update(&cache, 0, 1, 1.0, 9.0, 2), (1, 0));
        assert_eq!(update(&cache, 2, 3, 1.0, 9.0, 1), (0, 0));
        assert!(cache.lookup_vec(NodeId(4), NodeId(5), &single(2)).is_none());
        assert!(cache.lookup_vec(NodeId(6), NodeId(7), &single(2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = RouteCache::new(0);
        insert(&cache, 0, 1, route(&[0, 1], 1.0, 0));
        assert!(cache.lookup_vec(NodeId(0), NodeId(1), &single(0)).is_none());
        assert_eq!(update(&cache, 0, 1, 1.0, 2.0, 1), (0, 0));
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(1), 1, 8)
            .is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn invalidated_entries_retire_into_the_stale_tier() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        let (invalidated, _) = update(&cache, 0, 1, 1.0, 9.0, 1);
        assert_eq!(invalidated, 1);
        assert!(cache.is_empty(), "the stale tier is not the live cache");
        assert!(cache.lookup_vec(NodeId(0), NodeId(3), &single(1)).is_none());
        let (stale, age) = cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(3), 1, 8)
            .expect("the retired route is servable");
        assert_eq!(stale.epoch, 0);
        assert_eq!(age, 1);
        assert_eq!(stale.path.cost, 2.0);
        let stats = cache.stats();
        assert_eq!((stats.retirements, stats.stale_hits), (1, 1));
    }

    #[test]
    fn stale_lookups_respect_the_age_bound() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(3), 10, 8)
            .is_none());
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(3), 8, 8)
            .is_some());
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(9), NodeId(9), 1, 8)
            .is_none());
    }

    #[test]
    fn stale_tier_keeps_the_newest_retiree_per_key_and_is_bounded() {
        let cache = RouteCache::new(2);
        // Retire (0,3) at epoch 0, then a fresher (0,3) at epoch 1.
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        insert(&cache, 0, 3, route(&[0, 2, 3], 3.0, 1));
        update(&cache, 0, 2, 1.0, 9.0, 2);
        let (stale, age) = cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(3), 2, 8)
            .unwrap();
        assert_eq!((stale.epoch, age), (1, 1), "newest retiree wins");
        // Fill the tier past capacity: the oldest epoch is evicted.
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 2));
        insert(&cache, 6, 7, route(&[6, 7], 8.0, 2));
        update(&cache, 0, 1, 9.0, 0.5, 3); // undercuts both
        assert!(
            cache
                .lookup_stale(&mut Level::root(), NodeId(0), NodeId(3), 3, 8)
                .is_none(),
            "the epoch-1 retiree was the eviction victim"
        );
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(4), NodeId(5), 3, 8)
            .is_some());
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(6), NodeId(7), 3, 8)
            .is_some());
    }

    #[test]
    fn stale_tier_content_does_not_depend_on_hash_order() {
        // X = (10,11) and Y = (12,13) fill the tier at epoch 2; then one
        // decrease retires A = (0,1) (epoch 0, shard 1) and B = (2,3)
        // (epoch 4, shard 0). Retiring A first
        // evicts X, then B evicts A: the tier is {Y, B}. Retiring B
        // first evicts X, then A evicts Y: {A, B}. Every fresh cache
        // (each with its own hash seed) must land on the same tier.
        let keys = [(0, 1), (2, 3), (10, 11), (12, 13)];
        let tier = || {
            let cache = RouteCache::new(2);
            for (from, to) in [(10, 11), (12, 13)] {
                cache.insert_stamped(
                    NodeId(from),
                    NodeId(to),
                    route(&[from, to], 5.0, 2),
                    vec![(0, 1)],
                );
            }
            // An increase installs shard 0 at version 3: both are two
            // versions behind, so both retire as stale.
            cache.apply_shard_update(NodeId(98), NodeId(99), 1.0, 9.0, &[0], &vector(3, &[3]));
            cache.insert_stamped(NodeId(0), NodeId(1), route(&[0, 1], 5.0, 0), vec![(1, 0)]);
            cache.insert_stamped(NodeId(2), NodeId(3), route(&[2, 3], 5.0, 4), vec![(0, 3)]);
            let v = vector(5, &[4, 1]);
            let swept = cache.apply_shard_update(NodeId(98), NodeId(99), 9.0, 0.5, &[0, 1], &v);
            assert_eq!(swept, (2, 0), "the decrease retires A and B");
            keys.into_iter()
                .filter(|&(from, to)| {
                    cache
                        .lookup_stale(&mut Level::root(), NodeId(from), NodeId(to), 5, u64::MAX)
                        .is_some()
                })
                .collect::<Vec<_>>()
        };
        let first = tier();
        assert_eq!(first.len(), 2);
        for _ in 1..32 {
            assert_eq!(tier(), first);
        }
    }

    #[test]
    fn stamped_entries_hit_across_updates_in_other_shards() {
        let cache = RouteCache::new(8);
        // Path crosses shards 0 and 1; computed at install 0.
        cache.insert_stamped(
            NodeId(0),
            NodeId(3),
            route(&[0, 1, 3], 2.0, 0),
            vec![(0, 0), (1, 0)],
        );
        // An increase in shard 2: install 1, version vector [0, 0, 1].
        let v1 = vector(1, &[0, 0, 1]);
        let (invalidated, promoted) =
            cache.apply_shard_update(NodeId(9), NodeId(10), 5.0, 40.0, &[2], &v1);
        assert_eq!((invalidated, promoted), (0, 0), "entry was never visited");
        let hit = cache.lookup_vec(NodeId(0), NodeId(3), &v1).unwrap();
        assert_eq!(hit.epoch, 0, "kept its compute-time install");
        assert_eq!(hit.path.cost, 2.0);
    }

    #[test]
    fn increase_in_an_intersecting_shard_restamps_off_path_entries() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        // (0,1) jams from 1.0 to 40.0 in shard 0. The first path uses the
        // hop — dropped. The second is off-path: under a pure increase it
        // stays optimal whatever the new cost.
        assert_eq!(update(&cache, 0, 1, 1.0, 40.0, 1), (1, 1));
        assert!(cache.lookup_vec(NodeId(0), NodeId(3), &single(1)).is_none());
        let hit = cache.lookup_vec(NodeId(4), NodeId(5), &single(1)).unwrap();
        assert_eq!(hit.epoch, 1, "promotion advances the install");
        // A cheap jam is still a jam: 2.5 is below the cached 7.0 total,
        // but the cost went up, so nothing can have got better.
        assert_eq!(update(&cache, 8, 9, 1.0, 2.5, 2), (0, 1));
    }

    #[test]
    fn a_decrease_drops_whatever_it_undercuts() {
        let cache = RouteCache::new(8);
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 7.0, 0), vec![(1, 0)]);
        // A decrease in shard 0 to 1.0 could create a better route
        // anywhere, so the store bumps every shard and the shard-1 entry
        // must drop (could_beat).
        let v1 = vector(1, &[1, 1]);
        let (invalidated, promoted) =
            cache.apply_shard_update(NodeId(0), NodeId(1), 5.0, 1.0, &[0, 1], &v1);
        assert_eq!((invalidated, promoted), (1, 0));
        assert!(cache.lookup_vec(NodeId(4), NodeId(5), &v1).is_none());
        // …and it retired into the stale tier like any invalidation.
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(4), NodeId(5), 1, 8)
            .is_some());
    }

    #[test]
    fn vector_lookup_misses_when_a_crossed_shard_moved() {
        let cache = RouteCache::new(8);
        cache.insert_stamped(
            NodeId(0),
            NodeId(3),
            route(&[0, 1, 3], 2.0, 0),
            vec![(0, 0), (1, 0)],
        );
        assert!(cache
            .lookup_vec(NodeId(0), NodeId(3), &vector(0, &[0, 0]))
            .is_some());
        assert!(
            cache
                .lookup_vec(NodeId(0), NodeId(3), &vector(1, &[0, 1]))
                .is_none(),
            "shard 1 moved under the path"
        );
        assert!(cache
            .lookup_vec(NodeId(3), NodeId(0), &vector(0, &[0, 0]))
            .is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn a_snapshot_is_not_served_a_route_from_a_later_install() {
        let cache = RouteCache::new(8);
        // Computed at install 1, after an increase in shard 1 pushed the
        // route into shard 0 only. A worker still pinned to install 0
        // sees shard 0 unchanged, but at its costs the route may not be
        // the best one.
        cache.insert_stamped(
            NodeId(0),
            NodeId(3),
            route(&[0, 1, 3], 2.0, 1),
            vec![(0, 0)],
        );
        assert!(cache
            .lookup_vec(NodeId(0), NodeId(3), &vector(0, &[0, 0]))
            .is_none());
        assert!(cache
            .lookup_vec(NodeId(0), NodeId(3), &vector(1, &[0, 1]))
            .is_some());
    }

    #[test]
    fn metrics_mirror_the_counters() {
        let registry = atis_obs::MetricsRegistry::shared();
        let cache = RouteCache::new(8).with_metrics(registry.clone());
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        cache.lookup_vec(NodeId(0), NodeId(3), &single(0));
        cache.lookup_vec(NodeId(9), NodeId(9), &single(0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        assert_eq!(registry.counter("cache_hits_total"), 1);
        assert_eq!(registry.counter("cache_misses_total"), 1);
        assert_eq!(registry.counter("cache_invalidations_total"), 1);
    }
}

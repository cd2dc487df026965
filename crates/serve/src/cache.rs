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
//! The stamps do not live with the route. Every live entry owns a slot,
//! and what the rule reads of it sits in dense arrays indexed by slot:
//! one column of versions per shard (`ABSENT` where the path does not
//! cross it), and a `Stamp` — one cache line — holding the key, a
//! mask of the shards crossed, the install the entry is valid at, its
//! total and the coordinates of its endpoints. The route itself is only
//! read on a hit and by the on-path scan.
//!
//! ## Invalidation rule
//!
//! A traffic update changes directed edge `(u, v)` from `old_cost` to
//! `new_cost`, bumps `shards` and installs the next vector.
//! [`RouteCache::apply_shard_update`] then examines every entry whose
//! stamp set intersects `shards` (all of them after a decrease; after an
//! increase the others cannot use the edge) and either **drops** or
//! **promotes** it. Every decision uses one bound, from the geometry the
//! install publishes on `epochs`: the graph's coordinates and a cost
//! floor `α` ([`EpochVector::floor`]) such that no edge costs less than
//! `α` times its straight-line length. By the triangle inequality a
//! route `s ⇝ u → v ⇝ d` then costs at least `c + α·(‖s − u‖ + ‖v − d‖)`
//! while the edge costs `c`: [`floor_bound`], shrunk by a margin for the
//! rounding of search labels. The entry's key names `s` and `d`.
//!
//! * dropped if the cost went *down* and the bound at `new_cost`
//!   undercuts the cached total — only then could the update have
//!   created a better route than the cached one (a pure increase can
//!   only raise route costs, so an off-path entry stays optimal whatever
//!   the new cost); or
//! * dropped if its path uses the hop `(u, v)` — the answer's cost is
//!   definitely stale. A path priced at `old_cost` can only use the edge
//!   where the bound at `old_cost` is within its total, so elsewhere the
//!   O(path) scan is skipped; and since the bound grows with the cost,
//!   an entry a decrease keeps is never scanned unless the two bounds
//!   round to the same value; or
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
//! same reason a sweep bounds with its own install's floor, and an
//! insert stamped below a version a sweep has already installed (a
//! worker finishing late against an old snapshot) is refused.
//!
//! ## What a sweep costs
//!
//! The sweep walks the slots in order, 64 at a time, under the
//! `Entries` lock every lookup takes. It first reads the touched shards'
//! columns for those 64 slots — contiguous memory, no pointer followed —
//! and only then the `Stamp`s of the entries it must examine: one
//! cache line each, with the two distances of the bound computed from
//! the coordinates the stamp keeps, and an O(path) on-path scan where
//! the bound cannot rule the edge out. A promotion stores the new
//! versions into the columns and the install into the stamp, where they
//! sit; a retirement costs O(log capacity) (the dropped keys are removed
//! and retired in key order, and the stale tier's eviction victim is the
//! first element of an `(epoch, key)` index). Nothing is allocated
//! unless something drops. On hot-10k (1 024 entries, 8 shards, cost
//! increases, about 155 entries examined a sweep; 2-CPU Linux container)
//! the sweep's median was 245–298 µs when every update moved every entry
//! into a fresh table, 56–79 µs when the sweep walked a hash table and
//! followed each entry's own stamp list, and 25–28 µs over the dense
//! arrays. A decrease examines every entry: measured alone on a full
//! 1 024-entry metro-10k cache, a cleared jam's sweep promotes about
//! 1 004 entries in 79–88 µs (hash table and stamp lists), where
//! dropping nearly all of them took 729–758 µs before the floor.
//!
//! Unreachable results are not cached: cost updates cannot change
//! reachability, but a `None` path has no edges for the rule to inspect,
//! and misses on unreachable pairs are cheap to recompute.
//!
//! ## Eviction
//!
//! The cache is LRU-bounded: when full, an insert evicts the
//! least-recently-used entry (ties broken by smaller key, so eviction is
//! deterministic). The victim is the first element of a
//! `(last_used, key)` index kept beside the table, which a hit, an
//! insert, an eviction and a sweep's drop each update in O(log
//! capacity), so an insert into a full cache does not scan it. A removed
//! entry's slot is refilled by the last one, so the slots stay dense.
//! Capacity 0 disables the cache entirely.
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
use atis_graph::{floor_bound, NodeId, Path, Point};
use atis_obs::SharedRegistry;
use std::collections::{BTreeSet, HashMap};

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
/// `cache_invalidations_total` / `cache_promotions_total` when one is
/// attached).
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

/// The version a shard's column holds for a slot whose path does not
/// cross the shard. No shard reaches it: a version counts the installs
/// that bumped it.
const ABSENT: u64 = u64::MAX;

/// What the rule reads of a live entry besides its shard versions, one
/// per slot in a dense array: one cache line, which is all a sweep reads
/// of an entry whose path it need not scan.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Stamp {
    /// The entry's key, `(from, to)`.
    key: (u32, u32),
    /// Bit `s % 64` set for every shard `s` the path crosses: which
    /// columns a lookup reads.
    shards: u64,
    /// The install the answer is valid at: the one it was computed at,
    /// advanced by promotions.
    epoch: u64,
    /// The route's total cost, which the bound is compared against.
    total: f64,
    /// The coordinates of the key's nodes, once read ([`UNREAD`] until
    /// then).
    ends: (Point, Point),
}

impl Stamp {
    /// The coordinates of the route's endpoints, the nodes of `key`: read
    /// from `points` the first time they are asked for — by the insert
    /// when it has the snapshot's coordinates, or else by the first sweep
    /// that bounds the entry — and kept after. Coordinates never change
    /// across installs, and the stamp is in hand where a read of the
    /// graph's array is a cache miss per entry (a decrease's sweep over a
    /// full cache took about half again as long without the copy).
    /// [`UNREAD`] while `points` cannot place a node.
    fn ends(&mut self, points: &[Point]) -> (Point, Point) {
        let (s, d) = self.key;
        if self.ends.0.x.is_nan() {
            if let (Some(&s), Some(&d)) = (points.get(s as usize), points.get(d as usize)) {
                self.ends = (s, d);
            }
        }
        self.ends
    }
}

/// The coordinates of a node not read yet, or one the install cannot
/// place: its distances are not numbers, which [`floor_bound`] reads as
/// no reach, bounding a route by the edge's cost alone.
const UNREAD: Point = Point::new(f64::NAN, f64::NAN);

/// The rest of a live entry: what a hit hands back, and its last use.
#[derive(Debug)]
struct Entry {
    path: Path,
    iterations: u64,
    cost_units: f64,
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    /// The slot of every live key. Slots `0..len` are all live: the
    /// per-slot arrays below move in step.
    slots: HashMap<(u32, u32), usize>,
    entries: Vec<Entry>,
    stamps: Vec<Stamp>,
    /// One column per shard, `stride` slots long: slot `i`'s version of
    /// shard `s` is `versions[s * stride + i]`, [`ABSENT`] where its path
    /// does not cross `s` (and past the last slot). A sweep reads the
    /// columns of the shards its update touched, front to back. The
    /// array is laid out again, rarely, when a stamp names a shard past
    /// the last column or the slots outgrow a column.
    versions: Vec<u64>,
    width: usize,
    stride: usize,
    /// `(last_used, key)` of every live entry, so the LRU eviction
    /// victim is the first element.
    lru_order: BTreeSet<(u64, (u32, u32))>,
    /// Retired (invalidated) routes, still at the epoch they were
    /// computed at — the stale-serve tier. Bounded by the same capacity
    /// as the live table; never counted by `len` / `is_empty`.
    stale: HashMap<(u32, u32), CachedRoute>,
    /// `(epoch, key)` of every route in `stale`, so the tier's eviction
    /// victim is the first element.
    stale_order: BTreeSet<(u64, (u32, u32))>,
    tick: u64,
    /// Highest per-shard version an [`RouteCache::apply_shard_update`]
    /// sweep has installed, indexed by shard; stamped inserts below any
    /// of them are stale and refused.
    latest_versions: Vec<u64>,
    stats: CacheStats,
}

/// The bit of `shard` in a [`Stamp`]'s shard mask.
fn bit(shard: usize) -> u64 {
    1 << (shard % 64)
}

#[expect(
    clippy::indexing_slicing,
    reason = "slots `0..len` index every per-slot array, and `versions` holds `width` columns of `stride` slots"
)]
impl Inner {
    fn latest_version(&self, shard: u32) -> u64 {
        self.latest_versions
            .get(shard as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The shards the path in `slot` crosses, with its versions of them.
    fn crossed(&self, slot: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let mask = self.stamps[slot].shards;
        (0..self.width)
            .filter(move |&shard| mask & bit(shard) != 0)
            .map(move |shard| (shard as u32, self.versions[shard * self.stride + slot]))
            .filter(|&(_, version)| version != ABSENT)
    }

    /// Whether the entry in `slot` is exact at `epochs`: it is from no
    /// later install, and every shard its path crosses is still at the
    /// version it was validated at.
    fn valid_at(&self, slot: usize, epochs: &EpochVector) -> bool {
        self.stamps[slot].epoch <= epochs.install()
            && self
                .crossed(slot)
                .all(|(shard, version)| epochs.version(shard) == version)
    }

    /// The answer in `slot`, at the install it is valid at.
    fn route(&self, slot: usize) -> CachedRoute {
        let entry = &self.entries[slot];
        CachedRoute {
            path: entry.path.clone(),
            epoch: self.stamps[slot].epoch,
            iterations: entry.iterations,
            cost_units: entry.cost_units,
        }
    }

    /// The answer a removed entry held, at the install it was valid at.
    fn into_route(entry: Entry, stamp: Stamp) -> CachedRoute {
        CachedRoute {
            path: entry.path,
            epoch: stamp.epoch,
            iterations: entry.iterations,
            cost_units: entry.cost_units,
        }
    }

    /// Lays the versions out again as `width` columns of `stride` slots.
    fn relayout(&mut self, width: usize, stride: usize) {
        let mut versions = vec![ABSENT; width * stride];
        let live = self.entries.len();
        for shard in 0..self.width {
            let from = shard * self.stride;
            versions[shard * stride..][..live].copy_from_slice(&self.versions[from..][..live]);
        }
        (self.versions, self.width, self.stride) = (versions, width, stride);
    }

    /// The install the entry in `slot` is valid at.
    fn epoch(&self, slot: usize) -> u64 {
        self.stamps[slot].epoch
    }

    /// Marks the entry in `slot` used at `tick`.
    fn touch(&mut self, slot: usize, tick: u64) {
        let (entry, key) = (&mut self.entries[slot], self.stamps[slot].key);
        self.lru_order.remove(&(entry.last_used, key));
        self.lru_order.insert((tick, key));
        entry.last_used = tick;
    }

    /// Stores an entry stamped with `stamps`, over the one its key holds
    /// or in a new last slot, and indexes it.
    fn store(&mut self, entry: Entry, stamp: Stamp, stamps: &[(u32, u64)]) {
        let (key, tick) = (stamp.key, entry.last_used);
        let slot = match self.slots.get(&key) {
            Some(&slot) => {
                self.lru_order.remove(&(self.entries[slot].last_used, key));
                slot
            }
            None => self.entries.len(),
        };
        let widest = stamps.iter().map(|&(shard, _)| shard as usize + 1).max();
        let width = widest.map_or(self.width, |widest| widest.max(self.width));
        let stride = if slot < self.stride {
            self.stride
        } else {
            (2 * self.stride).max(8)
        };
        if (width, stride) != (self.width, self.stride) {
            self.relayout(width, stride);
        }
        if slot == self.entries.len() {
            self.entries.push(entry);
            self.stamps.push(stamp);
            self.slots.insert(key, slot);
        } else {
            self.entries[slot] = entry;
            self.stamps[slot] = stamp;
        }
        for shard in 0..self.width {
            self.versions[shard * self.stride + slot] = ABSENT;
        }
        for &(shard, version) in stamps {
            self.versions[shard as usize * self.stride + slot] = version;
        }
        self.lru_order.insert((tick, key));
    }

    /// The walk of [`RouteCache::apply_shard_update`] over the slots:
    /// promotes in place what the update cannot have changed, and
    /// returns the keys to drop, with the number promoted.
    fn sweep(
        &mut self,
        (u, v): (NodeId, NodeId),
        (old_cost, new_cost): (f64, f64),
        shards: &[u32],
        epochs: &EpochVector,
    ) -> (Vec<(u32, u32)>, u64) {
        let (install, points) = (epochs.install(), epochs.points());
        let at = |n: NodeId| points.get(n.index()).copied().unwrap_or(UNREAD);
        let (from, to) = (at(u), at(v));
        let mut promoted = 0u64;
        let mut dropped: Vec<(u32, u32)> = Vec::new();
        let stride = self.stride;
        // How far an entry's touched versions trail this install: a read
        // of each touched shard's column (none past the last).
        let behind = |versions: &[u64], slot: usize| {
            let trail = shards.iter().filter_map(|&shard| {
                let version = *versions.get(shard as usize * stride + slot)?;
                (version != ABSENT).then(|| epochs.version(shard).saturating_sub(version))
            });
            trail.max()
        };
        let len = self.entries.len();
        for base in (0..len).step_by(64) {
            // Which of the next 64 entries to examine, and which of those
            // are stale, from the columns alone. An entry none of whose
            // touched versions trails — the path never enters a touched
            // shard, or the entry was computed against the new costs — is
            // neither dropped nor rewritten: the update cannot have
            // changed it.
            let (mut examine, mut stale) = (0u64, 0u64);
            for i in 0..(len - base).min(64) {
                if let Some(trail @ 1..) = behind(&self.versions, base + i) {
                    examine |= 1 << i;
                    stale |= u64::from(trail > 1) << i;
                }
            }
            // Then their stamps, one after another with no branch between
            // them that the columns did not already decide.
            while examine != 0 {
                let i = examine.trailing_zeros();
                examine &= examine - 1;
                let slot = base + i as usize;
                let stamp = &mut self.stamps[slot];
                if stale >> i & 1 == 1 || {
                    // The straight-line span of a route `s ⇝ u → v ⇝ d`.
                    let (s, d) = stamp.ends(points);
                    let span = s.euclidean(&from) + to.euclidean(&d);
                    let path = &self.entries[slot].path;
                    let floor = epochs.floor();
                    invalidates(stamp.total, path, (u, v), old_cost, new_cost, floor, span)
                } {
                    dropped.push(stamp.key);
                } else {
                    stamp.epoch = stamp.epoch.max(install);
                    for &shard in shards {
                        let at = shard as usize * stride + slot;
                        if let Some(version) = self.versions.get_mut(at) {
                            if *version != ABSENT {
                                *version = epochs.version(shard);
                            }
                        }
                    }
                    promoted += 1;
                }
            }
        }
        (dropped, promoted)
    }

    /// Removes `key`'s entry and unindexes it, moving the last slot into
    /// its place.
    fn remove(&mut self, key: (u32, u32)) -> Option<(Entry, Stamp)> {
        let slot = self.slots.remove(&key)?;
        let last = self.entries.len() - 1;
        let entry = self.entries.swap_remove(slot);
        let stamp = self.stamps.swap_remove(slot);
        for column in self.versions.chunks_exact_mut(self.stride) {
            column[slot] = column[last];
            column[last] = ABSENT;
        }
        if let Some(moved) = self.stamps.get(slot) {
            self.slots.insert(moved.key, slot);
        }
        self.lru_order.remove(&(entry.last_used, key));
        Some((entry, stamp))
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
                slots: HashMap::new(),
                entries: Vec::new(),
                stamps: Vec::new(),
                versions: Vec::new(),
                width: 0,
                stride: 0,
                lru_order: BTreeSet::new(),
                stale: HashMap::new(),
                stale_order: BTreeSet::new(),
                tick: 0,
                latest_versions: Vec::new(),
                stats: CacheStats::default(),
            }),
            metrics: None,
        }
    }

    /// Mirrors the hit/miss/invalidation/promotion counters into
    /// `metrics` (`cache_hits_total`, `cache_misses_total`,
    /// `cache_invalidations_total`, `cache_promotions_total`).
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
        self.lock_entries(&mut Level::root()).0.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lock_entries(&mut Level::root()).0.entries.is_empty()
    }

    /// A copy of the monotonic statistics.
    pub fn stats(&self) -> CacheStats {
        self.lock_entries(&mut Level::root()).0.stats
    }

    /// Where `(from, to)`'s stamps are held: its slot and the address of
    /// the array of shard versions. The same before and after a sweep
    /// iff the sweep restamped the entry where it sits; `None` when the
    /// key is not cached.
    #[doc(hidden)]
    pub fn stamp_site(&self, from: NodeId, to: NodeId) -> Option<(usize, usize)> {
        let level = &mut Level::root();
        let (inner, _) = self.lock_entries(level);
        let slot = *inner.slots.get(&(from.0, to.0))?;
        Some((slot, inner.versions.as_ptr() as usize))
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
        let (mut guard, _) = self.lock_entries(level);
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let key = (from.0, to.0);
        match inner.slots.get(&key).copied() {
            Some(slot) if inner.valid_at(slot, epochs) => {
                inner.touch(slot, tick);
                let route = inner.route(slot);
                inner.stats.hits += 1;
                drop(guard);
                self.bump("cache_hits_total", 1);
                Some(route)
            }
            _ => {
                inner.stats.misses += 1;
                drop(guard);
                self.bump("cache_misses_total", 1);
                None
            }
        }
    }

    /// Inserts a computed route stamped with the `(shard, version)` pairs
    /// of the snapshot it was computed against (`route.epoch` carries the
    /// snapshot's install counter), one pair per shard the path crosses.
    /// Refused when the cache is disabled, when any stamp predates a
    /// version an update sweep has already installed for that shard (a
    /// racing worker finishing against an old snapshot), or when a newer
    /// entry for the key is present.
    pub fn insert_stamped(
        &self,
        from: NodeId,
        to: NodeId,
        route: CachedRoute,
        stamps: Vec<(u32, u64)>,
    ) {
        self.insert_stamped_at(&mut Level::root(), from, to, route, stamps, &[]);
    }

    /// [`RouteCache::insert_stamped`] at `level`. `points` are the
    /// coordinates of the snapshot the route was computed against: the
    /// entry keeps its endpoints' from them now, where they are likely
    /// still in cache, and no sweep has to fetch them. Without them (an
    /// empty slice) the first sweep that bounds the entry reads them.
    pub(crate) fn insert_stamped_at(
        &self,
        level: &mut Level<Unlocked>,
        from: NodeId,
        to: NodeId,
        route: CachedRoute,
        stamps: Vec<(u32, u64)>,
        points: &[Point],
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
        let key = (from.0, to.0);
        let existing = inner.slots.get(&key).copied();
        if existing.is_some_and(|slot| inner.epoch(slot) > route.epoch) {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.len() >= self.capacity && existing.is_none() {
            // Deterministic LRU eviction: oldest tick, then smallest key.
            if let Some(&(_, victim)) = inner.lru_order.first() {
                let _evicted = inner.remove(victim);
                inner.stats.evictions += 1;
            }
        }
        let mut stamp = Stamp {
            key,
            shards: stamps
                .iter()
                .fold(0, |mask, &(shard, _)| mask | bit(shard as usize)),
            epoch: route.epoch,
            total: route.path.cost,
            ends: (UNREAD, UNREAD),
        };
        stamp.ends(points);
        let entry = Entry {
            path: route.path,
            iterations: route.iterations,
            cost_units: route.cost_units,
            last_used: tick,
        };
        inner.store(entry, stamp, &stamps);
        inner.stats.insertions += 1;
    }

    /// Sweeps the cache for a traffic update: directed edge `(u, v)`
    /// went from `old_cost` to `new_cost`, bumping `shards` and
    /// installing the post-update vector `epochs`, whose floor bounds
    /// the routes (see the module docs). Returns `(invalidated,
    /// promoted)`.
    ///
    /// Every entry costs a read of its touched shards' versions; only
    /// those whose path crosses one of `shards` are examined further —
    /// after an increase the others cannot use the edge and are left
    /// where they are, untouched; a decrease bumps every shard, so every
    /// entry is examined. An examined entry drops if it is stale (more
    /// than one version behind on a touched shard), if a decrease could
    /// undercut its total, or if its path uses the edge — an O(path)
    /// scan that runs only where the bound cannot rule the edge out.
    /// Otherwise its touched versions and its install move on in place.
    /// Dropped entries retire into the stale tier in key order, O(log
    /// capacity) each.
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
        let (mut guard, _) = self.lock_entries(level);
        let inner = &mut *guard;
        let (mut dropped, promoted) = inner.sweep((u, v), (old_cost, new_cost), shards, epochs);
        // `retire` evicts against the tier as it stands, so the tier's
        // content depends on the order: retire in key order.
        dropped.sort_unstable();
        let invalidated = dropped.len() as u64;
        for key in dropped {
            if let Some((entry, stamp)) = inner.remove(key) {
                self.retire(inner, key, Inner::into_route(entry, stamp));
            }
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
        drop(guard);
        self.bump("cache_invalidations_total", invalidated);
        self.bump("cache_promotions_total", promoted);
        (invalidated, promoted)
    }

    /// Moves an invalidated route into the stale tier, keeping the
    /// newest retiree per key and evicting the oldest-epoch entry (ties
    /// broken by smaller key) when the tier is full: the first element
    /// of `stale_order`, so a retirement costs O(log capacity).
    fn retire(&self, inner: &mut Inner, key: (u32, u32), route: CachedRoute) {
        if let Some(existing) = inner.stale.get(&key) {
            if existing.epoch > route.epoch {
                return;
            }
        }
        if inner.stale.len() >= self.capacity && !inner.stale.contains_key(&key) {
            if let Some((_, victim)) = inner.stale_order.pop_first() {
                inner.stale.remove(&victim);
            }
        }
        let epoch = route.epoch;
        // Unindex the replaced retiree before indexing the new one: at the
        // same epoch both are the same `(epoch, key)`.
        if let Some(replaced) = inner.stale.insert(key, route) {
            inner.stale_order.remove(&(replaced.epoch, key));
        }
        inner.stale_order.insert((epoch, key));
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

/// The sweep's rule for one entry that has seen every update before
/// this one: whether the change of edge `(u, v)` from `old_cost` to
/// `new_cost`, at an install with cost floor `floor`, may have changed
/// the route `path` from `s` to `d`, of cost `total`, where `span` is
/// `‖s − u‖ + ‖v − d‖` (not a number where the install cannot place a
/// node: no reach).
///
/// Any route `s ⇝ u → v ⇝ d` is labelled at least [`floor_bound`] of
/// the edge's cost over the span. So a decrease can undercut the cached
/// total only where the bound at `new_cost` does, and the cached path,
/// priced at `old_cost`, can use the edge only where the bound at
/// `old_cost` is within its total: elsewhere the O(path) scan is
/// skipped. The bound grows with the cost, so an entry a decrease keeps
/// is scanned only when both bounds equal its total.
fn invalidates(
    total: f64,
    path: &Path,
    (u, v): (NodeId, NodeId),
    old_cost: f64,
    new_cost: f64,
    floor: f64,
    span: f64,
) -> bool {
    (new_cost < old_cost && floor_bound(new_cost, floor, span) < total)
        || (floor_bound(old_cost, floor, span) <= total
            && path.hops().any(|(a, b)| a == u && b == v))
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

    /// The cache as it was before the live table and the tier got their
    /// eviction indexes, the sweep went in place and the stamps moved
    /// into dense rows: one hash table of entries, each with its own
    /// `(shard, version)` list. Every insert into a full table scans it
    /// for its `(last_used, key)` minimum, every update moves each entry
    /// into a fresh table, and every retirement into a full tier scans
    /// the tier for its `(epoch, key)` minimum. Slow and obviously right;
    /// `the_in_place_sweep_matches_the_rebuild_sweep` holds the cache to
    /// it, state for state.
    struct Reference {
        capacity: usize,
        map: HashMap<(u32, u32), Listed>,
        stale: HashMap<(u32, u32), CachedRoute>,
        tick: u64,
        latest_versions: Vec<u64>,
        stats: CacheStats,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Reference {
                capacity,
                map: HashMap::new(),
                stale: HashMap::new(),
                tick: 0,
                latest_versions: Vec::new(),
                stats: CacheStats::default(),
            }
        }

        fn latest_version(&self, shard: u32) -> u64 {
            self.latest_versions
                .get(shard as usize)
                .copied()
                .unwrap_or(0)
        }

        fn lookup(&mut self, key: (u32, u32), epochs: &EpochVector) -> Option<CachedRoute> {
            if self.capacity == 0 {
                return None;
            }
            self.tick += 1;
            match self.map.get_mut(&key) {
                Some((route, stamps, last_used))
                    if route.epoch <= epochs.install()
                        && stamps
                            .iter()
                            .all(|&(s, version)| epochs.version(s) == version) =>
                {
                    *last_used = self.tick;
                    self.stats.hits += 1;
                    Some(route.clone())
                }
                _ => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn lookup_stale(
            &mut self,
            key: (u32, u32),
            current: u64,
            max_age: u64,
        ) -> Option<(CachedRoute, u64)> {
            if self.capacity == 0 {
                return None;
            }
            let route = self.stale.get(&key)?.clone();
            let age = current.saturating_sub(route.epoch).max(1);
            if age > max_age {
                return None;
            }
            self.stats.stale_hits += 1;
            Some((route, age))
        }

        fn insert(&mut self, key: (u32, u32), route: CachedRoute, stamps: Vec<(u32, u64)>) {
            if self.capacity == 0 || stamps.is_empty() {
                return;
            }
            if stamps
                .iter()
                .any(|&(shard, version)| version < self.latest_version(shard))
            {
                return;
            }
            if let Some((existing, _, _)) = self.map.get(&key) {
                if existing.epoch > route.epoch {
                    return;
                }
            }
            self.tick += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                let victim = self
                    .map
                    .iter()
                    .min_by_key(|(key, entry)| (entry.2, **key))
                    .map(|(key, _)| *key);
                if let Some(victim) = victim {
                    self.map.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.map.insert(key, (route, stamps, self.tick));
            self.stats.insertions += 1;
        }

        fn sweep(
            &mut self,
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
            let mut invalidated = 0u64;
            let mut promoted = 0u64;
            let swept = std::mem::take(&mut self.map);
            let mut retired: Vec<((u32, u32), CachedRoute)> = Vec::new();
            #[expect(
                clippy::iter_over_hash_type,
                reason = "each entry's fate depends on that entry alone, and `retired` is sorted below"
            )]
            for (key, (mut route, mut stamps, last_used)) in swept {
                let behind = stamps
                    .iter()
                    .filter(|(shard, _)| shards.contains(shard))
                    .map(|&(shard, version)| epochs.version(shard).saturating_sub(version))
                    .max();
                let Some(behind @ 1..) = behind else {
                    self.map.insert(key, (route, stamps, last_used));
                    continue;
                };
                let stale = behind > 1;
                // The bound, from the coordinates of the key's own nodes.
                let at = |n: u32| epochs.points()[n as usize];
                let span = at(key.0).euclidean(&at(u.0)) + at(v.0).euclidean(&at(key.1));
                let floor = epochs.floor();
                let total = route.path.cost;
                let on_path = route.path.hops().any(|(a, b)| a == u && b == v);
                let could_use = floor_bound(old_cost, floor, span) <= total;
                let could_beat = decrease && floor_bound(new_cost, floor, span) < total;
                if stale || (on_path && could_use) || could_beat {
                    invalidated += 1;
                    retired.push((key, route));
                } else {
                    for stamp in stamps.iter_mut() {
                        if shards.contains(&stamp.0) {
                            stamp.1 = epochs.version(stamp.0);
                        }
                    }
                    route.epoch = route.epoch.max(install);
                    promoted += 1;
                    self.map.insert(key, (route, stamps, last_used));
                }
            }
            retired.sort_unstable_by_key(|&(key, _)| key);
            for (key, route) in retired {
                self.retire(key, route);
            }
            for &shard in shards {
                let idx = shard as usize;
                if self.latest_versions.len() <= idx {
                    self.latest_versions.resize(idx + 1, 0);
                }
                let version = epochs.version(shard);
                self.latest_versions[idx] = self.latest_versions[idx].max(version);
            }
            self.stats.invalidations += invalidated;
            self.stats.promotions += promoted;
            (invalidated, promoted)
        }

        fn retire(&mut self, key: (u32, u32), route: CachedRoute) {
            if let Some(existing) = self.stale.get(&key) {
                if existing.epoch > route.epoch {
                    return;
                }
            }
            if self.stale.len() >= self.capacity && !self.stale.contains_key(&key) {
                let victim = self
                    .stale
                    .iter()
                    .min_by_key(|(k, r)| (r.epoch, **k))
                    .map(|(k, _)| *k);
                if let Some(victim) = victim {
                    self.stale.remove(&victim);
                }
            }
            self.stale.insert(key, route);
            self.stats.retirements += 1;
        }

        /// Everything it holds, as [`contents`] reads a cache.
        fn contents(&self) -> (Live, Tier, Vec<u64>, CacheStats) {
            let mut live: Live = self
                .map
                .iter()
                .map(|(&key, (route, stamps, last_used))| {
                    (key, route.clone(), stamps.clone(), *last_used)
                })
                .collect();
            live.sort_unstable_by_key(|entry| entry.0);
            let mut tier: Tier = self.stale.iter().map(|(&k, r)| (k, r.clone())).collect();
            tier.sort_unstable_by_key(|entry| entry.0);
            (live, tier, self.latest_versions.clone(), self.stats)
        }
    }

    /// A reference entry: the route, its stamps and its last use.
    type Listed = (CachedRoute, Vec<(u32, u64)>, u64);
    type Live = Vec<((u32, u32), CachedRoute, Vec<(u32, u64)>, u64)>;
    type Tier = Vec<((u32, u32), CachedRoute)>;

    /// Everything a cache holds, in key order: the live entries (route,
    /// stamps, `last_used`), the stale tier, the swept versions and the
    /// statistics.
    fn contents(cache: &RouteCache) -> (Live, Tier, Vec<u64>, CacheStats) {
        let level = &mut Level::root();
        let (inner, _) = cache.lock_entries(level);
        let mut live: Live = (0..inner.entries.len())
            .map(|slot| {
                let (key, last_used) = (inner.stamps[slot].key, inner.entries[slot].last_used);
                let stamps = inner.crossed(slot).collect();
                (key, inner.route(slot), stamps, last_used)
            })
            .collect();
        live.sort_unstable_by_key(|entry| entry.0);
        let mut tier: Tier = inner.stale.iter().map(|(&k, r)| (k, r.clone())).collect();
        tier.sort_unstable_by_key(|entry| entry.0);
        (live, tier, inner.latest_versions.clone(), inner.stats)
    }

    /// The slots are dense and indexed by key, the live table's eviction
    /// index holds one `(last_used, key)` per entry, and the stale tier's
    /// one `(epoch, key)` per retired route, and nothing else.
    fn assert_indexed(cache: &RouteCache) {
        let level = &mut Level::root();
        let (inner, _) = cache.lock_entries(level);
        let len = inner.entries.len();
        assert_eq!((inner.slots.len(), inner.stamps.len()), (len, len));
        assert_eq!(inner.versions.len(), inner.width * inner.stride);
        for (slot, stamp) in inner.stamps.iter().enumerate() {
            assert_eq!(
                inner.slots.get(&stamp.key),
                Some(&slot),
                "the index names the slot"
            );
            for shard in 0..inner.width {
                let crossed = inner.versions[shard * inner.stride + slot] != ABSENT;
                assert!(
                    !crossed || stamp.shards & bit(shard) != 0,
                    "the mask has every column"
                );
            }
        }
        let past = |column: &[u64]| column[len..].iter().all(|&version| version == ABSENT);
        assert!(
            inner.versions.chunks(inner.stride.max(1)).all(past),
            "no slot past the last"
        );
        let pairs = inner.entries.iter().zip(&inner.stamps);
        let mut live: Vec<(u64, (u32, u32))> = pairs.map(|(e, s)| (e.last_used, s.key)).collect();
        live.sort_unstable();
        let indexed: Vec<(u64, (u32, u32))> = inner.lru_order.iter().copied().collect();
        assert_eq!(indexed, live, "the LRU index is the table");
        let mut tier: Vec<(u64, (u32, u32))> =
            inner.stale.iter().map(|(&k, r)| (r.epoch, k)).collect();
        tier.sort_unstable();
        let indexed: Vec<(u64, (u32, u32))> = inner.stale_order.iter().copied().collect();
        assert_eq!(indexed, tier, "the eviction index is the tier");
    }

    /// A cache-level traffic update: installed (the vector moved) but not
    /// yet swept.
    struct Pending {
        edge: (NodeId, NodeId),
        old_cost: f64,
        new_cost: f64,
        shards: Vec<u32>,
        epochs: EpochVector,
    }

    /// One seeded script of inserts, hits, stale reads, installs and
    /// sweeps, run against the in-place cache and the reference; returns
    /// the in-place cache's final statistics. Up to three installs wait
    /// for their sweeps, which run in any order, so an examined entry is
    /// 0, 1 or 2 versions behind; inserts are stamped up to two versions
    /// behind, so some are refused.
    fn differential_script(seed: u64) -> CacheStats {
        const NODES: u64 = 6;
        let mut rng = atis_graph::SplitMix64::new(seed);
        let capacity = 2 + rng.next_below(15) as usize;
        let shard_count = 1 + rng.next_below(8) as usize;
        let points: std::sync::Arc<[Point]> = (0..NODES)
            .map(|_| Point::new(rng.next_range(0.0, 10.0), rng.next_range(0.0, 10.0)))
            .collect();
        let (fast, mut reference) = (RouteCache::new(capacity), Reference::new(capacity));
        let mut versions = vec![0u64; shard_count];
        let mut install = 0u64;
        let mut pending: Vec<Pending> = Vec::new();
        for step in 0..300 {
            let key = (rng.next_below(NODES) as u32, rng.next_below(NODES) as u32);
            match rng.next_below(12) {
                0..=3 => {
                    let mut nodes = vec![key.0];
                    for _ in 0..rng.next_below(3) {
                        nodes.push(rng.next_below(NODES) as u32);
                    }
                    nodes.push(key.1);
                    let cost = rng.next_range(1.0, 20.0);
                    let epoch = install.saturating_sub(rng.next_below(3));
                    let mut shards: Vec<u32> = (0..1 + rng.next_below(3))
                        .map(|_| rng.next_below(shard_count as u64) as u32)
                        .collect();
                    shards.sort_unstable();
                    shards.dedup();
                    let stamps: Vec<(u32, u64)> = shards
                        .into_iter()
                        .map(|s| (s, versions[s as usize].saturating_sub(rng.next_below(3))))
                        .collect();
                    let (from, to) = (NodeId(key.0), NodeId(key.1));
                    let route = route(&nodes, cost, epoch);
                    fast.insert_stamped(from, to, route.clone(), stamps.clone());
                    reference.insert(key, route, stamps);
                }
                4..=5 => {
                    // A snapshot at the newest install or at a pending one.
                    let epochs = match rng.next_below(pending.len() as u64 + 1) as usize {
                        0 => EpochVector::with_versions(install, versions.clone()),
                        i => pending[i - 1].epochs.clone(),
                    };
                    let (from, to) = (NodeId(key.0), NodeId(key.1));
                    assert_eq!(
                        fast.lookup_vec(from, to, &epochs),
                        reference.lookup(key, &epochs),
                        "seed {seed} step {step}: lookup"
                    );
                }
                6 => {
                    let max_age = rng.next_below(4);
                    let (from, to) = (NodeId(key.0), NodeId(key.1));
                    assert_eq!(
                        fast.lookup_stale(&mut Level::root(), from, to, install, max_age),
                        reference.lookup_stale(key, install, max_age),
                        "seed {seed} step {step}"
                    );
                }
                7..=8 if pending.len() < 3 => {
                    // Half the edges are a hop of a cached path.
                    let live = contents(&fast).0;
                    let hop = match rng.next_below(2 * live.len() as u64 + 1) as usize {
                        i if i < live.len() => live[i].1.path.hops().next(),
                        _ => None,
                    };
                    let edge = hop.unwrap_or((
                        NodeId(rng.next_below(NODES) as u32),
                        NodeId(rng.next_below(NODES) as u32),
                    ));
                    let old_cost = rng.next_range(1.0, 20.0);
                    let decrease = rng.next_below(3) == 0;
                    let (new_cost, shards) = if decrease {
                        let all: Vec<u32> = (0..shard_count as u32).collect();
                        (rng.next_range(0.0, old_cost), all)
                    } else {
                        let mut touched = vec![
                            rng.next_below(shard_count as u64) as u32,
                            rng.next_below(shard_count as u64) as u32,
                        ];
                        touched.sort_unstable();
                        touched.dedup();
                        (old_cost + rng.next_range(0.5, 20.0), touched)
                    };
                    for &shard in &shards {
                        versions[shard as usize] += 1;
                    }
                    install += 1;
                    // Floors of 0 (the edge's cost alone bounds a route)
                    // and up to twice a unit cost.
                    let floor = rng.next_range(-1.0, 2.0).max(0.0);
                    let epochs = EpochVector::with_versions(install, versions.clone())
                        .with_geometry(floor, points.clone());
                    pending.push(Pending {
                        edge,
                        old_cost,
                        new_cost,
                        shards,
                        epochs,
                    });
                }
                _ if !pending.is_empty() => {
                    let next = rng.next_below(pending.len() as u64) as usize;
                    let p = pending.remove(next);
                    let (edge, old, new) = (p.edge, p.old_cost, p.new_cost);
                    assert_eq!(
                        fast.apply_shard_update_at(
                            &mut Level::root(),
                            edge,
                            old,
                            new,
                            &p.shards,
                            &p.epochs
                        ),
                        reference.sweep(edge, old, new, &p.shards, &p.epochs),
                        "seed {seed} step {step}: sweep"
                    );
                }
                _ => {}
            }
            assert_eq!(
                contents(&fast),
                reference.contents(),
                "seed {seed} step {step}"
            );
            assert_indexed(&fast);
        }
        contents(&fast).3
    }

    #[test]
    fn the_in_place_sweep_matches_the_rebuild_sweep() {
        let mut total = CacheStats::default();
        for seed in 0..200 {
            let s = differential_script(seed);
            total.hits += s.hits;
            total.invalidations += s.invalidations;
            total.evictions += s.evictions;
            total.promotions += s.promotions;
            total.retirements += s.retirements;
            total.stale_hits += s.stale_hits;
        }
        // The scripts reach every path the two sweeps could differ on.
        assert!(total.hits > 0 && total.invalidations > 0 && total.evictions > 0);
        assert!(total.promotions > 0 && total.retirements > 0 && total.stale_hits > 0);
    }
}

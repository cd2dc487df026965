//! The invalidation-aware route cache.
//!
//! Keyed by `(from, to)` and validated against the querying snapshot's
//! [`crate::shard::EpochVector`]: a lookup only hits when the cached
//! entry was computed at — or proven unaffected up to — that snapshot,
//! so a cache hit is *bit-identical* to rerunning the algorithm against
//! it. A one-shard service and an eight-shard one run the same rule;
//! with one shard every update touches "the" shard.
//!
//! ## Validation (stamps)
//!
//! * [`RouteCache::insert_stamped`] stores, alongside the answer, one
//!   `(shard, version)` stamp per shard the path crosses, taken from the
//!   vector of the snapshot it was computed against.
//! * [`RouteCache::lookup_vec`] hits at once iff every stamp still
//!   matches the querying snapshot's vector and the entry is not from a
//!   later install than the snapshot. A cost increase bumps only the
//!   shards of the edge's endpoints, so an entry whose path never enters
//!   them keeps hitting across that install *without ever being
//!   rewritten*; a decrease bumps every shard.
//! * Otherwise the lookup **replays** the installs the entry has not
//!   seen (below) and hits if it survives them.
//!
//! The stamps do not live with the route. Every live entry owns a slot,
//! and what the rule reads of it sits in dense arrays indexed by slot:
//! one column of versions per shard (`ABSENT` where the path does not
//! cross it), and a `Stamp` — one cache line — holding the key, a
//! mask of the shards crossed, the install the entry is valid at, its
//! total and the coordinates of its endpoints. The route itself is only
//! read on a hit and by the on-path scan.
//!
//! ## The install log
//!
//! A traffic update changes directed edge `(u, v)` from `old_cost` to
//! `new_cost`, bumps `shards` and installs the next vector.
//! [`RouteCache::apply_shard_update`] reads no entry: it appends the
//! install to a log — the edge, both costs, the install's cost floor `α`
//! ([`EpochVector::floor`]), the coordinates of `u` and `v` and the
//! shards bumped — and raises the versions below which an insert is
//! refused, in O(shards touched). The log keeps the last `capacity`
//! installs, by install number; concurrent updaters append outside the
//! install lock in any order, so an install may be published before it
//! is logged.
//!
//! ## Replay
//!
//! A lookup whose entry is behind the snapshot replays, in install
//! order, every logged install after the entry's own and at or before
//! the snapshot's that bumped a shard its path crosses (a decrease bumps
//! them all). Each install is judged by one bound, from the geometry it
//! logged: a cost floor `α` such that no edge of that install costs less
//! than `α` times its straight-line length. The floor is exact at every
//! install: a decrease below it lowers it, and it rises again once the
//! last edge at it is re-priced above it. By the triangle inequality a
//! route `s ⇝ u → v ⇝ d` then costs at least `c + α·(‖s − u‖ + ‖v − d‖)`
//! while the edge costs `c`: [`floor_bound`], shrunk by a margin for the
//! rounding of search labels. The entry's key names `s` and `d`. The
//! install invalidates the entry
//!
//! * if the cost went *down* and the bound at `new_cost` undercuts the
//!   cached total — only then could the update have created a better
//!   route than the cached one (a pure increase can only raise route
//!   costs, so an off-path entry stays optimal whatever the new cost); or
//! * if its path uses the hop `(u, v)` — the answer's cost is
//!   definitely stale. A path priced at `old_cost` can only use the edge
//!   where the bound at `old_cost` is within its total, so elsewhere the
//!   O(path) scan is skipped; and since the bound grows with the cost,
//!   an entry a decrease keeps is never scanned unless the two bounds
//!   round to the same value.
//!
//! An entry no install invalidates is **promoted** where it sits: its
//! versions move to the snapshot's, and the install it claims to be
//! valid at becomes the last one it replayed — never past the snapshot.
//! An invalidated entry retires into the stale tier and the lookup
//! misses. So does an entry the log no longer reaches back to (a replay
//! cannot skip an install), while a lookup one of whose installs is
//! published but not logged yet misses and leaves the entry for a later
//! lookup. An insert stamped below a version the log already holds (a
//! worker finishing late against an old snapshot) is refused.
//!
//! ## What an update and a replay cost
//!
//! An update costs its log append, whatever the cache holds: a slot of
//! the log, written under the `Entries` lock, and no entry read. A
//! replay costs a read of the log's slots between the entry's install
//! and the snapshot's — one mask test each — plus the bound (two
//! distances, from the coordinates the stamp keeps) for each install
//! that bumped one of the entry's shards, and an O(path) scan only where
//! the bound cannot rule the edge out. A promotion stores the new
//! versions and install where they sit and allocates nothing; a
//! retirement costs O(log capacity).
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
//! insert, an eviction and a retirement each update in O(log capacity),
//! so an insert into a full cache does not scan it. A removed entry's
//! slot is refilled by the last one, so the slots stay dense. Capacity 0
//! disables the cache entirely.
//!
//! ## The stale tier
//!
//! Entries a replay invalidates are not discarded: they retire into a
//! separate, equally bounded *stale* map, keyed `(from, to)` and still
//! carrying the epoch they were valid at. The live cache never serves
//! them — [`RouteCache::lookup_vec`] is exact — but when the degrade
//! ladder has nothing better (storage breaker open, every rung failed),
//! `RouteCache::lookup_stale` can serve one as an explicitly tagged
//! `STALE k` answer: a road that existed `k` epochs ago beats no road at
//! all for a traveller already driving. The stale tier is invisible to
//! [`RouteCache::len`] / [`RouteCache::is_empty`] and to the hit/miss
//! counters; it has its own `stale_hits` / `retirements` statistics.

use crate::shard::EpochVector;
use crate::sync::{self, Entries, Level, LockBefore, Locked, Mutex, Unlocked};
use atis_graph::{floor_bound, NodeId, Path, Point};
use atis_obs::SharedRegistry;
use std::collections::{BTreeSet, HashMap, VecDeque};

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
/// attached). Every one of them moves on a lookup or an insert; an
/// update moves none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (absent key, an entry from a later install,
    /// an install not logged yet, or an entry a replay dropped).
    pub misses: u64,
    /// Entries dropped by replays (rule-invalidated, or older than the
    /// log reaches back).
    pub invalidations: u64,
    /// Entries accepted by `insert`.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Installs entries were carried across without recomputation, one
    /// per install a surviving replay judged.
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
/// per slot in a dense array: one cache line, which is all a replay
/// reads of an entry whose path it need not scan.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Stamp {
    /// The entry's key, `(from, to)`.
    key: (u32, u32),
    /// Bit `s % 64` set for every shard `s` the path crosses: which
    /// columns a lookup reads, and which logged installs it replays.
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
    /// when it has the snapshot's coordinates, or else by the first
    /// replay that bounds the entry — and kept after. Coordinates never
    /// change across installs, and the stamp is in hand where a read of
    /// the graph's array is a cache miss per entry. [`UNREAD`] while
    /// `points` cannot place a node.
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

/// The bit of `shard` in a [`Stamp`]'s shard mask.
fn bit(shard: usize) -> u64 {
    1 << (shard % 64)
}

/// One install, as a replay judges an entry by it.
#[derive(Debug, Clone, Copy)]
struct Logged {
    /// The directed edge the install re-priced.
    edge: (NodeId, NodeId),
    old_cost: f64,
    new_cost: f64,
    /// The install's cost floor `α`.
    floor: f64,
    /// The coordinates of the edge's nodes ([`UNREAD`] where the install
    /// cannot place one).
    at: (Point, Point),
    /// The shards the install bumped, as a [`Stamp`] mask.
    shards: u64,
}

/// The last installs, by number: `records[i]` is install `first + i`,
/// `None` while that install is published but not logged yet.
#[derive(Debug)]
struct Log {
    first: u64,
    records: VecDeque<Option<Logged>>,
}

/// Why a replay could not judge an entry.
enum Gap {
    /// The log no longer reaches back to an install the entry has not
    /// seen: no later lookup can judge it either.
    Horizon,
    /// An install the snapshot holds is not logged yet.
    Unlogged,
}

impl Log {
    /// Records `install`, keeping the last `len` installs. An install
    /// that arrives after the window has passed it is not kept: every
    /// entry that has not seen it is beyond the horizon already.
    fn append(&mut self, install: u64, logged: Logged, len: usize) {
        let Some(at) = install.checked_sub(self.first) else {
            return;
        };
        if let Some(slide) = (at + 1).checked_sub(len as u64).filter(|&s| s > 0) {
            let gone = slide.min(self.records.len() as u64) as usize;
            self.records.drain(..gone);
            self.first += slide;
        }
        let at = (install - self.first) as usize;
        if self.records.len() <= at {
            self.records.resize(at + 1, None);
        }
        if let Some(slot) = self.records.get_mut(at) {
            *slot = Some(logged);
        }
    }

    /// The installs after `seen` up to `upto` (`seen ≤ upto`), in install
    /// order.
    fn span(&self, seen: u64, upto: u64) -> Result<impl Iterator<Item = (u64, &Logged)>, Gap> {
        let from = (seen + 1).checked_sub(self.first).ok_or(Gap::Horizon)? as usize;
        let to = (upto + 1 - self.first) as usize;
        if to > self.records.len() || self.records.range(from..to).any(Option::is_none) {
            return Err(Gap::Unlogged);
        }
        Ok((seen + 1..).zip(self.records.range(from..to).flatten()))
    }
}

/// The rest of a live entry: what a hit hands back, and its last use.
#[derive(Debug)]
struct Entry {
    path: Path,
    iterations: u64,
    cost_units: f64,
    last_used: u64,
}

/// What a lookup makes of the entry it finds.
enum Verdict {
    /// Valid at the snapshot, after being carried across this many
    /// installs.
    Hit(u64),
    /// Not servable at this snapshot, but maybe at a later one.
    Miss,
    /// Invalid at the snapshot and every later one: retire it.
    Drop,
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
    /// does not cross `s` (and past the last slot). The array is laid
    /// out again, rarely, when a stamp names a shard past the last
    /// column or the slots outgrow a column.
    versions: Vec<u64>,
    width: usize,
    stride: usize,
    /// `(last_used, key)` of every live entry, so the LRU eviction
    /// victim is the first element.
    lru_order: BTreeSet<(u64, (u32, u32))>,
    /// Retired (invalidated) routes, still at the epoch they were
    /// valid at — the stale-serve tier. Bounded by the same capacity as
    /// the live table; never counted by `len` / `is_empty`.
    stale: HashMap<(u32, u32), CachedRoute>,
    /// `(epoch, key)` of every route in `stale`, so the tier's eviction
    /// victim is the first element.
    stale_order: BTreeSet<(u64, (u32, u32))>,
    tick: u64,
    /// The installs a replay judges entries by.
    log: Log,
    /// Highest per-shard version the log holds, indexed by shard;
    /// stamped inserts below any of them are stale and refused.
    latest_versions: Vec<u64>,
    stats: CacheStats,
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

    /// Judges the entry in `slot` at `epochs`: a hit at once when it is
    /// from no later install and every shard its path crosses is still
    /// at the version it was validated at; otherwise a replay of the
    /// logged installs it has not seen, which promotes it where it sits
    /// if none of them invalidates it.
    fn validate(&mut self, slot: usize, epochs: &EpochVector) -> Verdict {
        let install = epochs.install();
        if self.stamps[slot].epoch > install {
            return Verdict::Miss;
        }
        if self
            .crossed(slot)
            .all(|(shard, version)| epochs.version(shard) == version)
        {
            return Verdict::Hit(0);
        }
        let stamp = &mut self.stamps[slot];
        let (ends, mask, total) = (stamp.ends(epochs.points()), stamp.shards, stamp.total);
        let installs = match self.log.span(stamp.epoch, install) {
            Ok(installs) => installs,
            Err(Gap::Horizon) => return Verdict::Drop,
            Err(Gap::Unlogged) => return Verdict::Miss,
        };
        let (mut last, mut replayed) = (stamp.epoch, 0);
        for (at, logged) in installs.filter(|(_, logged)| logged.shards & mask != 0) {
            if invalidates(total, &self.entries[slot].path, ends, logged) {
                return Verdict::Drop;
            }
            (last, replayed) = (at, replayed + 1);
        }
        if replayed == 0 {
            // Versions behind with no install to show for it: stamps the
            // service never makes. Not provably valid, so not served.
            return Verdict::Miss;
        }
        stamp.epoch = last;
        for shard in 0..self.width {
            let version = &mut self.versions[shard * self.stride + slot];
            if *version != ABSENT {
                *version = epochs.version(shard as u32);
            }
        }
        Verdict::Hit(replayed)
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

    /// Removes the entry in `slot` and unindexes it, moving the last
    /// slot into its place: the answer it held, at the install it was
    /// valid at.
    fn remove(&mut self, slot: usize) -> CachedRoute {
        let last = self.entries.len() - 1;
        let entry = self.entries.swap_remove(slot);
        let stamp = self.stamps.swap_remove(slot);
        for column in self.versions.chunks_exact_mut(self.stride) {
            column[slot] = column[last];
            column[last] = ABSENT;
        }
        self.slots.remove(&stamp.key);
        if let Some(moved) = self.stamps.get(slot) {
            self.slots.insert(moved.key, slot);
        }
        self.lru_order.remove(&(entry.last_used, stamp.key));
        CachedRoute {
            path: entry.path,
            epoch: stamp.epoch,
            iterations: entry.iterations,
            cost_units: entry.cost_units,
        }
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
    /// A cache holding at most `capacity` routes (0 disables caching),
    /// whose log keeps the last `capacity` installs.
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
                log: Log {
                    first: 1,
                    records: VecDeque::new(),
                },
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

    /// Current number of entries, validated or not.
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
    /// the array of shard versions. The same before and after a replay
    /// iff the replay restamped the entry where it sits; `None` when the
    /// key is not cached.
    #[doc(hidden)]
    pub fn stamp_site(&self, from: NodeId, to: NodeId) -> Option<(usize, usize)> {
        let level = &mut Level::root();
        let (inner, _) = self.lock_entries(level);
        let slot = *inner.slots.get(&(from.0, to.0))?;
        Some((slot, inner.versions.as_ptr() as usize))
    }

    /// Looks up `(from, to)` against a snapshot's epoch vector. The entry
    /// must not come from a later install than the snapshot (a worker
    /// still pinned to an older snapshot must not be served a route
    /// computed after an increase it cannot see). It hits at once when
    /// every shard its path crosses is still at the version it was
    /// validated at; otherwise the lookup replays the logged installs it
    /// has not seen (see the module docs), promoting it where it sits or
    /// retiring it. The returned route keeps the install it was computed
    /// (or last promoted) at — older than the snapshot's when the
    /// intervening updates provably missed the path's shards.
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
        let slot = inner.slots.get(&(from.0, to.0)).copied();
        let verdict = slot.map_or(Verdict::Miss, |slot| inner.validate(slot, epochs));
        let (hit, promoted, invalidated) = match (slot, verdict) {
            (Some(slot), Verdict::Hit(promoted)) => {
                inner.touch(slot, tick);
                (Some(inner.route(slot)), promoted, 0)
            }
            (Some(slot), Verdict::Drop) => {
                let route = inner.remove(slot);
                self.retire(inner, (from.0, to.0), route);
                (None, 0, 1)
            }
            _ => (None, 0, 0),
        };
        let stats = &mut inner.stats;
        stats.promotions += promoted;
        stats.invalidations += invalidated;
        let (hits, misses) = if hit.is_some() { (1, 0) } else { (0, 1) };
        (stats.hits, stats.misses) = (stats.hits + hits, stats.misses + misses);
        drop(guard);
        self.bump("cache_hits_total", hits);
        self.bump("cache_misses_total", misses);
        self.bump("cache_promotions_total", promoted);
        self.bump("cache_invalidations_total", invalidated);
        hit
    }

    /// Inserts a computed route stamped with the `(shard, version)` pairs
    /// of the snapshot it was computed against (`route.epoch` carries the
    /// snapshot's install counter), one pair per shard the path crosses.
    /// Refused when the cache is disabled, when any stamp predates a
    /// version the log already holds for that shard (a racing worker
    /// finishing against an old snapshot), or when a newer entry for the
    /// key is present.
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
    /// still in cache, and no replay has to fetch them. Without them (an
    /// empty slice) the first replay that bounds the entry reads them.
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
                if let Some(slot) = inner.slots.get(&victim).copied() {
                    let _evicted = inner.remove(slot);
                    inner.stats.evictions += 1;
                }
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

    /// Logs a traffic update: directed edge `(u, v)` went from
    /// `old_cost` to `new_cost`, bumping `shards` and installing the
    /// post-update vector `epochs`, whose floor and coordinates the
    /// replays of this install bound routes by (see the module docs).
    /// Reads no entry and moves no statistic: O(`shards`), whatever the
    /// cache holds. Lookups at `epochs` or later judge their entries by
    /// it from now on.
    pub fn apply_shard_update(
        &self,
        u: NodeId,
        v: NodeId,
        old_cost: f64,
        new_cost: f64,
        shards: &[u32],
        epochs: &EpochVector,
    ) {
        let level = &mut Level::root();
        self.apply_shard_update_at(level, (u, v), old_cost, new_cost, shards, epochs);
    }

    pub(crate) fn apply_shard_update_at(
        &self,
        level: &mut Level<Unlocked>,
        (u, v): (NodeId, NodeId),
        old_cost: f64,
        new_cost: f64,
        shards: &[u32],
        epochs: &EpochVector,
    ) {
        if self.capacity == 0 {
            return;
        }
        let points = epochs.points();
        let at = |n: NodeId| points.get(n.index()).copied().unwrap_or(UNREAD);
        let logged = Logged {
            edge: (u, v),
            old_cost,
            new_cost,
            floor: epochs.floor(),
            at: (at(u), at(v)),
            shards: shards
                .iter()
                .fold(0, |mask, &shard| mask | bit(shard as usize)),
        };
        let (mut guard, _) = self.lock_entries(level);
        let inner = &mut *guard;
        inner.log.append(epochs.install(), logged, self.capacity);
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

/// The replay's rule for one entry valid at the install before
/// `install`: whether `install`'s change of its edge `(u, v)` may have
/// changed the route `path` from `s` to `d` (at `ends`), of cost
/// `total`. `span` is `‖s − u‖ + ‖v − d‖`, not a number where the
/// install cannot place a node: no reach.
///
/// Any route `s ⇝ u → v ⇝ d` is labelled at least [`floor_bound`] of
/// the edge's cost over the span, at the install's floor. So a decrease
/// can undercut the cached total only where the bound at `new_cost`
/// does, and the cached path, priced at `old_cost`, can use the edge
/// only where the bound at `old_cost` is within its total: elsewhere the
/// O(path) scan is skipped. The bound grows with the cost, so an entry a
/// decrease keeps is scanned only when both bounds equal its total.
fn invalidates(total: f64, path: &Path, (s, d): (Point, Point), install: &Logged) -> bool {
    let Logged {
        edge: (u, v),
        old_cost,
        new_cost,
        floor,
        at: (from, to),
        ..
    } = *install;
    let span = s.euclidean(&from) + to.euclidean(&d);
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
    fn update(cache: &RouteCache, u: u32, v: u32, old: f64, new: f64, install: u64) {
        cache.apply_shard_update(NodeId(u), NodeId(v), old, new, &[0], &single(install));
    }

    fn lookup(cache: &RouteCache, from: u32, to: u32, epochs: &EpochVector) -> Option<u64> {
        let hit = cache.lookup_vec(NodeId(from), NodeId(to), epochs);
        hit.map(|route| route.epoch)
    }

    #[test]
    fn direction_matters_for_the_on_path_test() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        // (1,0) is the reverse hop — not on the directed path — so even
        // a decrease survives when it does not undercut the total.
        update(&cache, 1, 0, 60.0, 50.0, 1);
        assert_eq!(lookup(&cache, 0, 3, &single(1)), Some(1), "promoted");
        assert_eq!(cache.stats().promotions, 1);
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
        // An update installs shard 0 at version 2.
        let v = vector(1, &[2]);
        cache.apply_shard_update(NodeId(0), NodeId(1), 1.0, 9.0, &[0], &v);
        // A worker that computed against shard 0 @ version 1 finishes
        // late: refused.
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 7.0, 0), vec![(0, 1)]);
        assert!(cache.is_empty());
        // At the logged version it is accepted.
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 7.0, 1), vec![(0, 2)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn an_update_reads_no_entry_and_moves_no_statistic() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        let (live, tier, _, stats) = contents(&cache);
        update(&cache, 0, 1, 1.0, 40.0, 1);
        update(&cache, 8, 9, 9.0, 0.5, 2);
        let (now_live, now_tier, logged, now_stats) = contents(&cache);
        assert_eq!(
            (now_live, now_tier, now_stats),
            (live, tier, stats),
            "no entry moved"
        );
        assert_eq!(
            logged,
            vec![2],
            "inserts below the logged version are refused"
        );
        // The lookups judge them: the first is on the jammed hop, the
        // second undercut by the clear.
        assert_eq!(lookup(&cache, 0, 3, &single(2)), None);
        assert_eq!(lookup(&cache, 4, 5, &single(2)), None);
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.retirements), (2, 2));
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = RouteCache::new(0);
        insert(&cache, 0, 1, route(&[0, 1], 1.0, 0));
        assert!(cache.lookup_vec(NodeId(0), NodeId(1), &single(0)).is_none());
        update(&cache, 0, 1, 1.0, 2.0, 1);
        assert!(cache.lookup_vec(NodeId(0), NodeId(1), &single(1)).is_none());
        assert!(cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(1), 1, 8)
            .is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn invalidated_entries_retire_into_the_stale_tier() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        assert!(cache.lookup_vec(NodeId(0), NodeId(3), &single(1)).is_none());
        assert!(cache.is_empty(), "the stale tier is not the live cache");
        let (stale, age) = cache
            .lookup_stale(&mut Level::root(), NodeId(0), NodeId(3), 1, 8)
            .expect("the retired route is servable");
        assert_eq!(stale.epoch, 0);
        assert_eq!(age, 1);
        assert_eq!(stale.path.cost, 2.0);
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.misses), (1, 1));
        assert_eq!((stats.retirements, stats.stale_hits), (1, 1));
    }

    #[test]
    fn stale_lookups_respect_the_age_bound() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        assert!(cache.lookup_vec(NodeId(0), NodeId(3), &single(1)).is_none());
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
        let stale = |from: u32, to: u32, current: u64| {
            let level = &mut Level::root();
            let found = cache.lookup_stale(level, NodeId(from), NodeId(to), current, 8);
            found.map(|(route, age)| (route.epoch, age))
        };
        // Retire (0,3) at epoch 0, then a fresher (0,3) at epoch 1.
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        assert_eq!(lookup(&cache, 0, 3, &single(1)), None);
        insert(&cache, 0, 3, route(&[0, 2, 3], 3.0, 1));
        update(&cache, 0, 2, 1.0, 9.0, 2);
        assert_eq!(lookup(&cache, 0, 3, &single(2)), None);
        assert_eq!(stale(0, 3, 2), Some((1, 1)), "newest retiree wins");
        // Fill the tier past capacity: the oldest epoch is evicted.
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 2));
        insert(&cache, 6, 7, route(&[6, 7], 8.0, 2));
        update(&cache, 0, 1, 9.0, 0.5, 3); // undercuts both
        assert_eq!(lookup(&cache, 4, 5, &single(3)), None);
        assert_eq!(lookup(&cache, 6, 7, &single(3)), None);
        assert_eq!(stale(0, 3, 3), None, "the epoch-1 retiree was the victim");
        assert!(stale(4, 5, 3).is_some() && stale(6, 7, 3).is_some());
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
        cache.apply_shard_update(NodeId(9), NodeId(10), 5.0, 40.0, &[2], &v1);
        let hit = cache.lookup_vec(NodeId(0), NodeId(3), &v1).unwrap();
        assert_eq!(hit.epoch, 0, "kept its compute-time install");
        assert_eq!(hit.path.cost, 2.0);
        assert_eq!(cache.stats().promotions, 0, "nothing to replay");
    }

    #[test]
    fn increase_in_an_intersecting_shard_promotes_off_path_entries() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        // (0,1) jams from 1.0 to 40.0 in shard 0. The first path uses the
        // hop — dropped. The second is off-path: under a pure increase it
        // stays optimal whatever the new cost.
        update(&cache, 0, 1, 1.0, 40.0, 1);
        assert_eq!(lookup(&cache, 0, 3, &single(1)), None);
        assert_eq!(lookup(&cache, 4, 5, &single(1)), Some(1), "promoted");
        // A cheap jam is still a jam: 2.5 is below the cached 7.0 total,
        // but the cost went up, so nothing can have got better.
        update(&cache, 8, 9, 1.0, 2.5, 2);
        assert_eq!(lookup(&cache, 4, 5, &single(2)), Some(2));
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.promotions), (1, 2));
    }

    #[test]
    fn a_decrease_drops_whatever_it_undercuts() {
        let cache = RouteCache::new(8);
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 7.0, 0), vec![(1, 0)]);
        cache.insert_stamped(NodeId(6), NodeId(7), route(&[6, 7], 0.5, 0), vec![(1, 0)]);
        // A decrease in shard 0 to 1.0 could create a better route
        // anywhere, so the store bumps every shard: the shard-1 entry it
        // undercuts drops, the one below it is promoted.
        let v1 = vector(1, &[1, 1]);
        cache.apply_shard_update(NodeId(0), NodeId(1), 5.0, 1.0, &[0, 1], &v1);
        assert!(cache.lookup_vec(NodeId(4), NodeId(5), &v1).is_none());
        assert_eq!(lookup(&cache, 6, 7, &v1), Some(1));
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
            "shard 1 moved under the path, and its install is not logged"
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
    fn a_lookup_at_an_install_not_logged_yet_misses_and_keeps_the_entry() {
        let cache = RouteCache::new(8);
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        // Installs 1 and 2 are published; only 2 is logged so far.
        update(&cache, 8, 9, 1.0, 2.0, 2);
        assert_eq!(lookup(&cache, 4, 5, &single(1)), None);
        assert_eq!(lookup(&cache, 4, 5, &single(2)), None);
        assert_eq!(cache.len(), 1, "a miss for want of the log drops nothing");
        // Install 1 is logged late; both replay now, in install order.
        update(&cache, 6, 7, 1.0, 3.0, 1);
        assert_eq!(lookup(&cache, 4, 5, &single(2)), Some(2));
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.promotions, stats.invalidations),
            (2, 2, 0)
        );
        // An entry from install 2, looked up at 4 before 3 and 4 are
        // logged, and then at 4 with only 3 logged.
        insert(&cache, 6, 7, route(&[6, 7], 7.0, 2));
        assert_eq!(lookup(&cache, 6, 7, &single(4)), None);
        update(&cache, 8, 9, 1.0, 2.0, 3);
        assert_eq!(lookup(&cache, 6, 7, &single(4)), None);
        update(&cache, 8, 9, 2.0, 3.0, 4);
        assert_eq!(lookup(&cache, 6, 7, &single(4)), Some(4));
    }

    #[test]
    fn a_lookup_replays_no_install_past_its_snapshot() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        // Install 1 jams a street off the path; install 2 jams its hop.
        update(&cache, 5, 6, 1.0, 9.0, 1);
        update(&cache, 0, 1, 1.0, 9.0, 2);
        // A worker pinned to install 1 is served the route, valid there.
        assert_eq!(lookup(&cache, 0, 3, &single(1)), Some(1));
        assert_eq!(lookup(&cache, 0, 3, &single(1)), Some(1));
        assert_eq!(
            cache.stats().promotions,
            1,
            "the second hit replays nothing"
        );
        // At install 2 it is gone.
        assert_eq!(lookup(&cache, 0, 3, &single(2)), None);
        assert_eq!(lookup(&cache, 0, 3, &single(1)), None);
    }

    #[test]
    fn a_replay_judges_every_install_it_has_not_seen() {
        let cache = RouteCache::new(8);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        // Three jams: the last one is on the first route's path.
        update(&cache, 5, 6, 1.0, 9.0, 1);
        update(&cache, 6, 7, 1.0, 9.0, 2);
        update(&cache, 1, 3, 1.0, 9.0, 3);
        assert_eq!(lookup(&cache, 0, 3, &single(3)), None);
        assert_eq!(lookup(&cache, 4, 5, &single(3)), Some(3));
        let stats = cache.stats();
        assert_eq!((stats.invalidations, stats.promotions), (1, 3));
    }

    #[test]
    fn a_replay_moves_the_entry_to_the_snapshot_where_it_sits() {
        let cache = RouteCache::new(8);
        cache.insert_stamped(
            NodeId(0),
            NodeId(3),
            route(&[0, 1, 3], 2.0, 0),
            vec![(0, 0), (2, 0)],
        );
        let site = cache.stamp_site(NodeId(0), NodeId(3));
        // Install 1 bumps shards 0 and 1, install 2 shard 3.
        let v1 = vector(1, &[1, 1, 0, 0]);
        let v2 = vector(2, &[1, 1, 0, 1]);
        cache.apply_shard_update(NodeId(7), NodeId(8), 1.0, 9.0, &[0, 1], &v1);
        cache.apply_shard_update(NodeId(9), NodeId(8), 1.0, 9.0, &[3], &v2);
        assert_eq!(
            lookup(&cache, 0, 3, &v2),
            Some(1),
            "the last install it replayed"
        );
        assert_eq!(cache.stamp_site(NodeId(0), NodeId(3)), site);
        let (live, ..) = contents(&cache);
        assert_eq!(live[0].2, vec![(0, 1), (2, 0)], "the snapshot's versions");
        assert_eq!(lookup(&cache, 0, 3, &v2), Some(1));
        assert_eq!(cache.stats().promotions, 1);
    }

    #[test]
    fn an_entry_older_than_the_log_misses_and_retires() {
        let cache = RouteCache::new(2);
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        // Install 1 jams the route's hop; installs 2 and 3 push it out of
        // the two-install log.
        update(&cache, 0, 1, 1.0, 9.0, 1);
        update(&cache, 5, 6, 1.0, 9.0, 2);
        update(&cache, 6, 7, 1.0, 9.0, 3);
        assert_eq!(lookup(&cache, 0, 3, &single(3)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn metrics_mirror_the_counters() {
        let registry = atis_obs::MetricsRegistry::shared();
        let cache = RouteCache::new(8).with_metrics(registry.clone());
        insert(&cache, 0, 3, route(&[0, 1, 3], 2.0, 0));
        insert(&cache, 4, 5, route(&[4, 5], 7.0, 0));
        cache.lookup_vec(NodeId(0), NodeId(3), &single(0));
        cache.lookup_vec(NodeId(9), NodeId(9), &single(0));
        update(&cache, 0, 1, 1.0, 9.0, 1);
        assert_eq!(registry.counter("cache_invalidations_total"), 0);
        cache.lookup_vec(NodeId(0), NodeId(3), &single(1));
        cache.lookup_vec(NodeId(4), NodeId(5), &single(1));
        assert_eq!(registry.counter("cache_hits_total"), 2);
        assert_eq!(registry.counter("cache_misses_total"), 2);
        assert_eq!(registry.counter("cache_invalidations_total"), 1);
        assert_eq!(registry.counter("cache_promotions_total"), 1);
    }

    /// The cache as it was before updates logged themselves: every
    /// update sweeps every entry, moving each into a fresh table — drops
    /// what the update invalidates and promotes the rest — and every
    /// insert into a full table scans it for its `(last_used, key)`
    /// minimum. Slow and obviously right;
    /// `the_lazy_cache_answers_as_the_eager_sweep_does` holds the cache to
    /// it, lookup for lookup.
    struct Reference {
        map: HashMap<(u32, u32), Listed>,
        tick: u64,
        latest_versions: Vec<u64>,
    }

    /// A reference entry: the route, its stamps and its last use.
    type Listed = (CachedRoute, Vec<(u32, u64)>, u64);

    impl Reference {
        fn lookup(&mut self, key: (u32, u32), epochs: &EpochVector) -> Option<CachedRoute> {
            self.tick += 1;
            match self.map.get_mut(&key) {
                Some((route, stamps, last_used))
                    if route.epoch <= epochs.install()
                        && stamps
                            .iter()
                            .all(|&(s, version)| epochs.version(s) == version) =>
                {
                    *last_used = self.tick;
                    Some(route.clone())
                }
                _ => None,
            }
        }

        fn insert(&mut self, key: (u32, u32), route: CachedRoute, stamps: Vec<(u32, u64)>) {
            let latest = |shard: u32| self.latest_versions.get(shard as usize).copied();
            if stamps
                .iter()
                .any(|&(shard, version)| version < latest(shard).unwrap_or(0))
            {
                return;
            }
            if self
                .map
                .get(&key)
                .is_some_and(|(old, ..)| old.epoch > route.epoch)
            {
                return;
            }
            self.tick += 1;
            self.map.insert(key, (route, stamps, self.tick));
        }

        fn sweep(
            &mut self,
            (u, v): (NodeId, NodeId),
            (old_cost, new_cost): (f64, f64),
            shards: &[u32],
            epochs: &EpochVector,
        ) {
            let decrease = new_cost < old_cost;
            let swept = std::mem::take(&mut self.map);
            #[expect(
                clippy::iter_over_hash_type,
                reason = "each entry's fate depends on that entry alone"
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
                // The bound, from the coordinates of the key's own nodes.
                let at = |n: u32| epochs.points()[n as usize];
                let span = at(key.0).euclidean(&at(u.0)) + at(v.0).euclidean(&at(key.1));
                let floor = epochs.floor();
                let total = route.path.cost;
                let on_path = route.path.hops().any(|(a, b)| a == u && b == v);
                let could_use = floor_bound(old_cost, floor, span) <= total;
                let could_beat = decrease && floor_bound(new_cost, floor, span) < total;
                if behind == 1 && !(on_path && could_use) && !could_beat {
                    for stamp in stamps.iter_mut().filter(|(s, _)| shards.contains(s)) {
                        stamp.1 = epochs.version(stamp.0);
                    }
                    route.epoch = route.epoch.max(epochs.install());
                    self.map.insert(key, (route, stamps, last_used));
                }
            }
            for &shard in shards {
                let idx = shard as usize;
                if self.latest_versions.len() <= idx {
                    self.latest_versions.resize(idx + 1, 0);
                }
                let version = epochs.version(shard);
                self.latest_versions[idx] = self.latest_versions[idx].max(version);
            }
        }
    }

    type Live = Vec<((u32, u32), CachedRoute, Vec<(u32, u64)>, u64)>;
    type Tier = Vec<((u32, u32), CachedRoute)>;

    /// Everything a cache holds, in key order: the live entries (route,
    /// stamps, `last_used`), the stale tier, the logged versions and the
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

    /// One seeded script of inserts, lookups, jams, clears and
    /// decreases below the floor, run against the lazy cache and the
    /// eager reference; returns the lazy cache's final statistics. Every
    /// lookup is at the newest install, each update is logged as the
    /// reference sweeps it, and the keys never fill the cache nor the
    /// installs its log: so each lookup must come out the same — hit or
    /// miss, route and claimed install. Inserts are stamped at the
    /// newest install or one up to two installs older, so some are
    /// refused.
    fn differential_script(seed: u64, shard_count: usize) -> CacheStats {
        const NODES: u64 = 6;
        let mut rng = atis_graph::SplitMix64::new(seed);
        let points: std::sync::Arc<[Point]> = (0..NODES)
            .map(|_| Point::new(rng.next_range(0.0, 10.0), rng.next_range(0.0, 10.0)))
            .collect();
        let fast = RouteCache::new(64);
        let mut reference = Reference {
            map: HashMap::new(),
            tick: 0,
            latest_versions: Vec::new(),
        };
        let mut history = vec![EpochVector::with_versions(0, vec![0; shard_count])];
        let mut floor = 1.0;
        for step in 0..300 {
            let now = history[history.len() - 1].clone();
            let key = (rng.next_below(NODES) as u32, rng.next_below(NODES) as u32);
            let (from, to) = (NodeId(key.0), NodeId(key.1));
            match rng.next_below(12) {
                0..=3 => {
                    let mut nodes = vec![key.0];
                    for _ in 0..rng.next_below(3) {
                        nodes.push(rng.next_below(NODES) as u32);
                    }
                    nodes.push(key.1);
                    let cost = rng.next_range(1.0, 20.0);
                    // An insert from an older snapshot over a key either
                    // cache holds may keep either of two valid routes (the
                    // eager sweep has promoted the held one past it, the
                    // lazy cache has not), so it goes to free keys only.
                    let free =
                        !reference.map.contains_key(&key) && fast.stamp_site(from, to).is_none();
                    let back = if free { rng.next_below(3) as usize } else { 0 };
                    let back = back.min(history.len() - 1);
                    let at = &history[history.len() - 1 - back];
                    let mut shards: Vec<u32> = (0..1 + rng.next_below(3))
                        .map(|_| rng.next_below(shard_count as u64) as u32)
                        .collect();
                    shards.sort_unstable();
                    shards.dedup();
                    let stamps: Vec<(u32, u64)> =
                        shards.into_iter().map(|s| (s, at.version(s))).collect();
                    let route = route(&nodes, cost, at.install());
                    fast.insert_stamped(from, to, route.clone(), stamps.clone());
                    reference.insert(key, route, stamps);
                }
                4..=7 => {
                    assert_eq!(
                        fast.lookup_vec(from, to, &now),
                        reference.lookup(key, &now),
                        "seed {seed} shards {shard_count} step {step}: lookup"
                    );
                }
                _ => {
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
                    let (new_cost, shards) = match rng.next_below(4) {
                        // A jam bumps the shards of its endpoints.
                        0 | 1 => {
                            let mut touched = vec![
                                rng.next_below(shard_count as u64) as u32,
                                rng.next_below(shard_count as u64) as u32,
                            ];
                            touched.sort_unstable();
                            touched.dedup();
                            (old_cost + rng.next_range(0.5, 20.0), touched)
                        }
                        // A clear, and a decrease that takes the floor down
                        // with it (to 0 at times: the edge's cost alone
                        // bounds a route), bump every shard.
                        kind => {
                            let new_cost = rng.next_range(0.0, old_cost);
                            if kind == 3 {
                                floor = (floor * rng.next_range(-0.5, 1.0)).max(0.0);
                            }
                            (new_cost, (0..shard_count as u32).collect())
                        }
                    };
                    if rng.next_below(4) == 0 {
                        floor = rng.next_range(0.5, 2.0);
                    }
                    let mut versions = now.versions().to_vec();
                    for &shard in &shards {
                        versions[shard as usize] += 1;
                    }
                    let epochs = EpochVector::with_versions(now.install() + 1, versions)
                        .with_geometry(floor, points.clone());
                    fast.apply_shard_update(edge.0, edge.1, old_cost, new_cost, &shards, &epochs);
                    reference.sweep(edge, (old_cost, new_cost), &shards, &epochs);
                    history.push(epochs);
                }
            }
            assert_indexed(&fast);
        }
        contents(&fast).3
    }

    #[test]
    fn the_lazy_cache_answers_as_the_eager_sweep_does() {
        for shards in [1, 8] {
            let mut total = CacheStats::default();
            for seed in 0..200 {
                let s = differential_script(seed, shards);
                total.hits += s.hits;
                total.misses += s.misses;
                total.invalidations += s.invalidations;
                total.promotions += s.promotions;
            }
            // The scripts reach every verdict a replay can reach.
            assert!(total.hits > 0 && total.misses > 0, "{total:?}");
            assert!(total.invalidations > 0 && total.promotions > 0, "{total:?}");
        }
    }
}

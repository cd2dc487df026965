//! Layer probes: the per-layer half of the traced run.
//!
//! On a snapshot of the workload's own database the harness re-enacts,
//! step by step and in the order of `serve::execute()` (reads) and
//! `ShardedEpochDb::update_edge_cost()` + `maintain_artifacts()` (writes),
//! a seeded sample of the workload's requests — calling each layer's
//! *public* function itself and recording one span per call, with the
//! count deltas (charged block reads, buffer-pool hits and misses) taken
//! at the same boundary. Nothing inside the program is instrumented:
//! spans inside the crates are a later change.
//!
//! A layer's self time is its span minus the child spans the harness
//! issued inside it; each root (`probe.route`, `probe.route.hit`,
//! `probe.update.inc`, `probe.update.dec`) is reconciled against the whole
//! call it re-enacts.

use crate::inputs::{Pair, Update};
use crate::metrics;
use crate::stack::{self, PRIMARY};
use crate::stats;
use atis_algorithms::memory::dijkstra_pair;
use atis_algorithms::{AStarVersion, Algorithm, Database, RunTrace};
use atis_core::RoutePlanner;
use atis_graph::{NodeId, SplitMix64};
use atis_serve::{CachedRoute, RouteCache, ShardMap, ShardSnapshot, ShardedEpochDb};
use atis_storage::IoStats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one re-enacted request share this.
    pub request: u64,
    /// Block reads the call charged (the paper's cost-model count).
    pub block_reads: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log; written out when the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            block_reads: 0,
            pool_hits: 0,
            pool_misses: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Times one call as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Span durations minus the time their direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Sorted durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect(),
        )
    }

    /// One JSON object per span, one span per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"self_ns\":{own_ns},\"block_reads\":{},\"pool_hits\":{},\"pool_misses\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.block_reads, s.pool_hits, s.pool_misses
            )?;
        }
        out.flush()
    }
}

/// How many of each probe a workload can afford.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCounts {
    pub routes: usize,
    pub flat: usize,
    pub increases: usize,
    pub decreases: usize,
    pub adjacency: usize,
}

impl ProbeCounts {
    pub const FULL: ProbeCounts = ProbeCounts {
        routes: 256,
        flat: 32,
        increases: 24,
        decreases: 6,
        adjacency: 10_000,
    };
    /// metro-100k: an install costs seconds, a flat rung tenths of one.
    pub const LARGE: ProbeCounts = ProbeCounts {
        routes: 32,
        flat: 4,
        increases: 1,
        decreases: 1,
        adjacency: 10_000,
    };
    pub const SMOKE: ProbeCounts = ProbeCounts {
        routes: 32,
        flat: 4,
        increases: 2,
        decreases: 1,
        adjacency: 1_000,
    };
}

fn pool_counts(db: &Database) -> (u64, u64) {
    db.buffer().map_or((0, 0), |pool| {
        let pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        (pool.hits, pool.misses)
    })
}

/// Runs `algorithm` as a leaf span with its counts; `None` on error.
fn run_span(
    rec: &mut Recorder,
    name: &'static str,
    request: u64,
    db: &Database,
    algorithm: Algorithm,
    pair: Pair,
) -> Option<RunTrace> {
    let (hits, misses) = pool_counts(db);
    let id = rec.begin(name, request);
    let result = db.run_with_budgets(algorithm, pair.0, pair.1, db.budgets());
    rec.end(id);
    let (hits_after, misses_after) = pool_counts(db);
    let trace = result.ok()?;
    let span = &mut rec.spans[id];
    span.block_reads = trace.io.block_reads;
    span.pool_hits = hits_after - hits;
    span.pool_misses = misses_after - misses;
    Some(trace)
}

/// Per-run aggregates of one algorithm rung.
#[derive(Default)]
struct RungTotals {
    runs: u64,
    iterations: u64,
    block_reads: u64,
    cost_units: f64,
    pool_hits: u64,
    pool_misses: u64,
}

impl RungTotals {
    fn add(&mut self, trace: &RunTrace, db: &Database, span: &Span) {
        self.runs += 1;
        self.iterations += trace.iterations;
        self.block_reads += trace.io.block_reads;
        self.cost_units += trace.cost_units(db.params());
        self.pool_hits += span.pool_hits;
        self.pool_misses += span.pool_misses;
    }

    fn per_run(&self, total: f64) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            total / self.runs as f64
        }
    }
}

/// The probes' results: metric name → (value, samples behind it).
pub type Measured = BTreeMap<&'static str, (f64, usize)>;

/// The per-layer metrics that are medians of spans of the same name; the
/// suffix gives the unit.
const TIMED: [&str; 25] = [
    "graph.cost_fingerprint_us",
    "graph.clone_ms",
    "storage.adjacency_fetch_us",
    "storage.edge_update_us",
    "preprocess.patch_ms",
    "preprocess.rebuild_ms",
    "preprocess.bound_us",
    "hierarchy.clone_ms",
    "hierarchy.customize_ms",
    "hierarchy.recontract_ms",
    "algorithms.v5.run_us",
    "algorithms.v4.run_us",
    "algorithms.v3.run_us",
    "algorithms.dijkstra.run_us",
    "algorithms.v5.trivial_run_us",
    "algorithms.db_clone_ms",
    "core.plan_us",
    "serve.snapshot_us",
    "serve.cache_lookup_us",
    "serve.cache_insert_us",
    "serve.cache_sweep_ms",
    "serve.install_inc_ms",
    "serve.install_dec_ms",
    "serve.submit_us",
    "serve.hit_route_us",
];

/// Medians of the timed spans, in the unit their name ends in (0 with no
/// samples: the workload gave the probe nothing of that kind).
pub fn timed_medians(rec: &Recorder, out: &mut Measured) {
    for name in TIMED {
        let per_unit_ns = if name.ends_with("_ms") { 1e6 } else { 1e3 };
        let d = rec.durations(name);
        out.insert(
            name,
            (stats::median(&d).unwrap_or(0.0) / per_unit_ns, d.len()),
        );
    }
}

/// Reconciliation of one root span kind against the whole call.
pub struct Reconciled {
    pub root: &'static str,
    pub whole_call: &'static str,
    pub samples: usize,
    /// Median duration of the re-enacted root.
    pub root_median_ns: f64,
    /// Median self time of each child kind.
    pub children: Vec<(&'static str, f64)>,
    /// Median of (root − Σ children): time between the harness's calls.
    pub unattributed_ns: f64,
    /// Median duration of the whole call it re-enacts.
    pub whole_median_ns: f64,
}

fn reconcile(
    rec: &Recorder,
    root: &'static str,
    whole_call: &'static str,
    whole_span: &'static str,
) -> Reconciled {
    let own = rec.self_times_ns();
    let mut per_child: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut roots = Vec::new();
    let mut remainders = Vec::new();
    for (id, span) in rec.spans.iter().enumerate() {
        if span.name == root {
            roots.push(span.duration_ns() as f64);
            remainders.push(own[id] as f64);
        } else if span.parent.is_some_and(|p| rec.spans[p].name == root) {
            per_child.entry(span.name).or_default().push(own[id] as f64);
        }
    }
    let med = |v: Vec<f64>| stats::median(&stats::sorted(v)).unwrap_or(0.0);
    Reconciled {
        root,
        whole_call,
        samples: roots.len(),
        root_median_ns: med(roots),
        children: per_child.into_iter().map(|(k, v)| (k, med(v))).collect(),
        unattributed_ns: med(remainders),
        whole_median_ns: stats::median(&rec.durations(whole_span)).unwrap_or(0.0),
    }
}

/// Runs every layer probe against `db` (the workload's database at
/// install 0; never mutated — the write probes work on clones).
pub fn layers(
    rec: &mut Recorder,
    db: &Database,
    route_sample: &[Pair],
    local_pool: &[Pair],
    script: &[Update],
    counts: ProbeCounts,
    seed: u64,
) -> Measured {
    let mut out = Measured::new();
    let graph = db.graph();
    let store = ShardedEpochDb::new(db.clone(), ShardMap::build(graph, stack::SHARDS));
    let cache = RouteCache::new(stack::CACHE_CAPACITY);
    // What `serve::cache_insert` does: stamp the route with the version of
    // every shard it crosses, then insert.
    let insert = |snap: &ShardSnapshot, pair: Pair, route: CachedRoute| {
        let stamps = store
            .map()
            .path_shards(&route.path.nodes)
            .into_iter()
            .map(|shard| (shard, snap.epochs.version(shard)))
            .collect();
        cache.insert_stamped(pair.0, pair.1, route, stamps);
    };

    // A route cache as full as the service's gets, holding local trips
    // (oracle routes: filling it is not what is measured).
    let snapshot = store.snapshot();
    for &pair in local_pool.iter().take(stack::CACHE_CAPACITY) {
        if let Some(path) = dijkstra_pair(graph, pair.0, pair.1) {
            let route = CachedRoute {
                path,
                epoch: 0,
                iterations: 0,
                cost_units: 0.0,
            };
            insert(&snapshot, pair, route);
        }
    }
    drop(snapshot);

    // ---- reads: execute()'s order --------------------------------------
    // The workload's own request stream, in order, until `counts.routes`
    // of them have missed the cache (a Zipf stream mostly hits).
    let mut v5 = RungTotals::default();
    for (i, &pair) in route_sample.iter().take(8 * counts.routes).enumerate() {
        if v5.runs as usize >= counts.routes {
            break;
        }
        let request = i as u64;
        // Not a step of execute(): the staleness check `Database::run`
        // makes inside (`Hierarchy::is_current_for`), timed on its own so
        // it can be set against `algorithms.v5.run_us`.
        if i < counts.routes {
            rec.call("graph.cost_fingerprint_us", request, || {
                std::hint::black_box(graph.cost_fingerprint())
            });
        }

        let root = rec.begin("probe.route", request);
        let snap = rec.call("serve.snapshot_us", request, || store.snapshot());
        let hit = rec.call("serve.cache_lookup_us", request, || {
            cache.lookup_vec(pair.0, pair.1, &snap.epochs)
        });
        if hit.is_some() {
            rec.spans[root].name = "probe.route.hit";
        } else if let Some(trace) = run_span(
            rec,
            "algorithms.v5.run_us",
            request,
            &snap.db,
            PRIMARY,
            pair,
        ) {
            let span = rec.spans.last().expect("run_span pushed a span").clone();
            v5.add(&trace, &snap.db, &span);
            if let Some(path) = trace.path.clone() {
                let route = CachedRoute {
                    path,
                    epoch: snap.install(),
                    iterations: trace.iterations,
                    cost_units: trace.cost_units(snap.db.params()),
                };
                rec.call("serve.cache_insert_us", request, || {
                    insert(&snap, pair, route)
                });
            }
        }
        rec.end(root);
    }

    // The flat rungs of the degrade ladder, on local trips (a long trip
    // is intractable for them at metro scale — which is why they are the
    // ladder's lower rungs).
    let flat = [
        ("v4", Algorithm::AStar(AStarVersion::V4)),
        ("v3", Algorithm::AStar(AStarVersion::V3)),
        ("dijkstra", Algorithm::Dijkstra),
    ];
    let mut flat_totals = [
        RungTotals::default(),
        RungTotals::default(),
        RungTotals::default(),
    ];
    for (i, &pair) in local_pool.iter().take(counts.flat).enumerate() {
        for ((rung, algorithm), totals) in flat.iter().zip(&mut flat_totals) {
            let name = metrics::per_layer(&format!("algorithms.{rung}.run_us"));
            if let Some(trace) = run_span(rec, name, i as u64, db, *algorithm, pair) {
                let span = rec.spans.last().expect("run_span pushed a span").clone();
                totals.add(&trace, db, &span);
            }
        }
    }
    let rungs = [("v5", &v5)]
        .into_iter()
        .chain(flat.iter().map(|f| f.0).zip(&flat_totals));
    for (rung, totals) in rungs {
        let n = totals.runs as usize;
        for (what, total) in [
            ("iterations", totals.iterations as f64),
            ("block_reads", totals.block_reads as f64),
            ("cost_units", totals.cost_units),
        ] {
            let key = metrics::per_layer(&format!("algorithms.{rung}.{what}_per_route"));
            out.insert(key, (totals.per_run(total), n));
        }
    }
    out.insert(
        "storage.physical_reads_per_route.v5",
        (v5.per_run(v5.pool_misses as f64), v5.runs as usize),
    );
    let v4 = &flat_totals[0];
    out.insert(
        "storage.physical_reads_per_route.v4",
        (v4.per_run(v4.pool_misses as f64), v4.runs as usize),
    );
    let v4_touches = (v4.pool_hits + v4.pool_misses).max(1);
    out.insert(
        "storage.pool_hit_rate.v4",
        (v4.pool_hits as f64 / v4_touches as f64, v4.runs as usize),
    );

    // Fixed per-query overhead: an adjacent pair has nothing to search.
    let mut rng = SplitMix64::new(seed ^ 0x7472_6976);
    for i in 0..counts.routes {
        let u = NodeId(rng.next_below(graph.node_count() as u64) as u32);
        if let Some(edge) = graph.neighbors(u).first() {
            run_span(
                rec,
                "algorithms.v5.trivial_run_us",
                i as u64,
                db,
                PRIMARY,
                (u, edge.to),
            );
        }
    }

    // The single-query planner (serve never calls it: ROADMAP 2b).
    if let (Ok(planner), Some(hierarchy)) = (RoutePlanner::new(graph), db.hierarchy()) {
        let planner = planner
            .with_algorithm(PRIMARY)
            .with_hierarchy(hierarchy.clone());
        for (i, &pair) in route_sample.iter().take(counts.routes.min(64)).enumerate() {
            rec.call("core.plan_us", i as u64, || {
                std::hint::black_box(planner.plan(pair.0, pair.1).is_ok())
            });
        }
    }

    // Storage: adjacency fetches through the `S.Begin-node` hash index.
    let mut io = IoStats::new();
    let mut fetched = 0usize;
    for i in 0..counts.adjacency {
        let u = rng.next_below(graph.node_count() as u64) as u32;
        let id = rec.begin("storage.adjacency_fetch_us", i as u64);
        let before = io.block_reads;
        let ok = db.edges().fetch_adjacency(u, &mut io).is_ok();
        rec.end(id);
        rec.spans[id].block_reads = io.block_reads - before;
        fetched += usize::from(ok);
    }
    out.insert(
        "storage.adjacency_reads_per_probe",
        (io.block_reads as f64 / fetched.max(1) as f64, fetched),
    );

    // Landmark bounds (the v4 rung's estimator).
    if let Some(tables) = db.landmarks() {
        for (i, &(s, d)) in route_sample.iter().take(counts.routes).enumerate() {
            rec.call("preprocess.bound_us", i as u64, || {
                std::hint::black_box(tables.bounds_to(d).bound(s))
            });
        }
    }

    for i in 0..4 {
        rec.call("graph.clone_ms", i, || std::hint::black_box(graph.clone()));
    }

    // ---- writes: update_edge_cost() + maintain_artifacts() order --------
    for (i, update) in script.iter().enumerate() {
        let request = i as u64;
        let root_name = if update.decrease {
            "probe.update.dec"
        } else {
            "probe.update.inc"
        };
        let current = store.snapshot();
        let root = rec.begin(root_name, request);
        let mut next = rec.call("algorithms.db_clone_ms", request, || (*current.db).clone());
        rec.call("storage.edge_update_us", request, || {
            next.update_edge_cost(update.u, update.v, update.cost)
                .expect("scripted updates are valid")
        });
        if let Some(overlay) = rec.call("hierarchy.clone_ms", request, || next.hierarchy().cloned())
        {
            let fresh = if update.decrease {
                rec.call("hierarchy.recontract_ms", request, || {
                    overlay
                        .rebuild_for(next.graph())
                        .expect("metro graphs are non-empty")
                })
            } else {
                rec.call("hierarchy.customize_ms", request, || {
                    overlay.customized_for(next.graph())
                })
            };
            next = next.with_hierarchy(fresh);
        }
        if let Some(tables) = next.landmarks().cloned() {
            let fresh = if update.decrease {
                rec.call("preprocess.rebuild_ms", request, || {
                    tables
                        .rebuild_for(next.graph())
                        .expect("metro graphs are non-empty")
                })
            } else {
                rec.call("preprocess.patch_ms", request, || {
                    tables.patched_for(next.graph())
                })
            };
            next = next.with_landmarks(fresh);
        }
        rec.end(root);
        drop(next);
        drop(current);

        // The whole call, for real: the store moves on one install, so the
        // next probe starts from the state the script expects.
        let whole = if update.decrease {
            "serve.install_dec_ms"
        } else {
            "serve.install_inc_ms"
        };
        let applied = rec.call(whole, request, || {
            store
                .update_edge_cost(update.u, update.v, update.cost)
                .expect("scripted updates are valid")
        });
        // What `RouteService::update_edge_cost` does next, outside the lock.
        rec.call("serve.cache_sweep_ms", request, || {
            cache.apply_shard_update(
                update.u,
                update.v,
                applied.update.old_cost,
                applied.update.new_cost,
                &applied.shards,
                &applied.epochs,
            )
        });
    }

    out
}

/// Each root against the whole call it re-enacts. The route root's whole
/// call is the live round trip of a miss, which `run::twins` records.
pub fn reconciliation(rec: &Recorder) -> Vec<Reconciled> {
    vec![
        reconcile(
            rec,
            "probe.route",
            "RouteService::route, a miss, one client",
            "serve.route_miss_rtt",
        ),
        reconcile(
            rec,
            "probe.route.hit",
            "RouteService::route, a hit, one client",
            "serve.hit_route_us",
        ),
        reconcile(
            rec,
            "probe.update.inc",
            "ShardedEpochDb::update_edge_cost, increase",
            "serve.install_inc_ms",
        ),
        reconcile(
            rec,
            "probe.update.dec",
            "ShardedEpochDb::update_edge_cost, decrease",
            "serve.install_dec_ms",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let mut rec = Recorder::new();
        let spans = [
            ("root", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 50, 90, Some(0)),
            ("a.inner", 15, 25, Some(1)),
        ];
        for (name, start_ns, end_ns, parent) in spans {
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 0,
                block_reads: 0,
                pool_hits: 0,
                pool_misses: 0,
            });
        }
        // root: 100 − (30 + 40); a: 30 − 10; leaves keep their duration.
        assert_eq!(rec.self_times_ns(), vec![30, 20, 40, 10]);
        let r = reconcile(&rec, "root", "whole", "a.inner");
        assert_eq!(r.samples, 1);
        assert_eq!(r.root_median_ns, 100.0);
        assert_eq!(r.unattributed_ns, 30.0);
        assert_eq!(r.children, vec![("a", 20.0), ("b", 40.0)]);
        assert_eq!(r.whole_median_ns, 10.0);
    }

    #[test]
    fn begin_and_end_nest_under_the_innermost_open_span() {
        let mut rec = Recorder::new();
        let root = rec.begin("root", 7);
        let leaf = rec.call("leaf", 7, || 1 + 1);
        assert_eq!(leaf, 2);
        rec.end(root);
        let after = rec.begin("sibling", 8);
        rec.end(after);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, None);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
    }
}

//! Serving-layer throughput under **open-loop** load: a seeded arrival
//! schedule drives the route service at a fixed offered rate while a
//! sustained stream of traffic updates installs new epochs, and the
//! harness reports completed req/s, latency percentiles (p50/p99/p999),
//! and the shed fraction into `BENCH_serve.json`.
//!
//! Not a Criterion bench: the quantity of interest is how a *concurrent*
//! system behaves under offered load it does not control, so the
//! generator submits at intended times `t_i = i/rate` regardless of how
//! fast answers come back. Latency is **coordinated-omission-safe**: a
//! sample is measured from the request's *intended* start, as
//! `submit lateness + queue wait + service time`, so a slow server that
//! delays the generator cannot hide its own queueing delay the way a
//! closed loop does. Sheds are terminal data points (no retry): the
//! shed fraction is reported per config, not hidden behind backoff.
//!
//! Two configurations of the one serving path run at each worker count,
//! same workload, same update stream:
//!
//! * `global` — 1 shard, no batching: every update bumps "the" shard,
//!   so every jam sweeps (and re-stamps) the whole cache, and every
//!   miss runs solo.
//! * `sharded` — epochs sharded by region group (8 shards) plus batched
//!   frontier expansion (batch ≤ 8): a jam bumps only the shards its
//!   edge touches, cached routes that never cross them are not even
//!   visited, and same-source misses share one charged Dijkstra sweep.
//!
//! Both run the same invalidation rule, which sees the old cost: a jam
//! drops only the routes that use the jammed edge. Earlier baselines
//! showed `global` collapsing (281 req/s, 79 % shed at 4 workers, 6.98×
//! behind `sharded`); that measured a second, since-deleted rule that
//! could not see `old_cost` and so dropped every route a cheap jam
//! *might* have undercut — nearly all of them — not sharding. At this
//! offered load (far below either config's knee) the two now differ
//! only in how many entries a sweep visits.
//!
//! The in-bench acceptance assertion (the CI perf gate's ground truth):
//! every config completes **≥ 95 %** of the offered load with **zero
//! sheds** and **p99 within the SLO** (50 ms) — all while the update
//! stream runs.
//!
//! The workload is the paper's disk-resident setting: the storage fault
//! layer arms a per-block-read device latency, so requests spend most
//! of their wall-clock in simulated I/O that concurrent workers overlap.
//! The route cache is **enabled** here (unlike the old closed-loop
//! bench): invalidation behaviour under update traffic is what the
//! bench watches, so caching is the experiment, not a confounder. Each config **warms** the cache (one computed answer per
//! workload pair, before the updater starts) and then measures the
//! steady serving state — cold-start cost is the scaling study's
//! subject, not this bench's. Requests are **local trips** (both
//! endpoints in one grid quadrant), the dominant ATIS query shape; it
//! is also the shape sharding rewards, since a local route's stamp
//! covers few shards and a jam elsewhere leaves it untouched.
//!
//! `SERVE_SMOKE=1` runs a shortened schedule (fewer requests, one
//! worker count) and writes `BENCH_serve_smoke.json` instead — the PR
//! CI mode; the scheduled full run refreshes the committed baseline.
//!
//! ```sh
//! cargo bench -p atis-bench --bench serve_throughput
//! ```

use atis_algorithms::{Algorithm, Database};
use atis_bench::PAPER_SEED;
use atis_graph::{CostModel, Grid, NodeId};
use atis_serve::{RouteService, ServeConfig, ServeError};
use atis_storage::FaultPlan;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GRID_K: usize = 30;
/// Offered load (requests per second) for the full run — below both
/// configs' capacity on a warm cache, so any shed or SLO miss is the
/// update path's doing.
const FULL_RATE: f64 = 2000.0;
const FULL_REQUESTS: usize = 3000;
const FULL_WORKERS: [usize; 2] = [4, 8];
const SMOKE_RATE: f64 = 2000.0;
const SMOKE_REQUESTS: usize = 600;
const SMOKE_WORKERS: [usize; 1] = [4];
/// One traffic update (a jam on a seeded random edge) installs per this
/// interval of wall clock — sustained update traffic, paced
/// independently of the arrival schedule. The gap is longer than one
/// route recompute, so a dropped route's re-insert lands between jams.
const UPDATE_INTERVAL: Duration = Duration::from_millis(20);
/// The latency SLO the percentiles are reported against.
const SLO: Duration = Duration::from_millis(50);
const QUEUE_CAPACITY: usize = 256;
const CACHE_CAPACITY: usize = 4096;
/// Simulated device latency per physical block read (disk-resident
/// setting; see module docs).
const READ_LATENCY: Duration = Duration::from_micros(1);
/// The sharded mode's shape: epoch shards and per-dequeue batch bound.
const SHARDS: usize = 8;
const BATCH_MAX: usize = 8;

/// A serving config under test: a name for the artifact plus the shard
/// count and batch bound.
struct Mode {
    name: &'static str,
    shards: usize,
    batch: usize,
}

const MODES: [Mode; 2] = [
    Mode {
        name: "global",
        shards: 1,
        batch: 1,
    },
    Mode {
        name: "sharded",
        shards: SHARDS,
        batch: BATCH_MAX,
    },
];

/// Seeded xorshift; every schedule, pair choice, and jammed edge in the
/// bench derives from it.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The request mix: all **local trips** (both endpoints inside one grid
/// quadrant — see module docs). A hot set of eight pairs (one shared
/// source per quadrant, two destinations each, shared-source so batched
/// sweeps can fold misses) takes 75% of arrivals; a seeded pool of
/// sixteen random within-quadrant pairs takes the rest.
struct Workload {
    hot: Vec<(NodeId, NodeId)>,
    pool: Vec<(NodeId, NodeId)>,
}

impl Workload {
    fn build(grid: &Grid) -> Workload {
        let half = GRID_K / 2;
        let quadrants = [(0, 0), (0, half), (half, 0), (half, half)];
        let mut hot = Vec::new();
        for &(qx, qy) in &quadrants {
            let source = grid.node_at(qx + half / 2, qy + half / 2);
            for &(dx, dy) in &[(1, 1), (half - 2, half - 2)] {
                hot.push((source, grid.node_at(qx + dx, qy + dy)));
            }
        }
        let mut rng = Rng(PAPER_SEED | 0x9e37_79b9_0000_0000);
        let mut pool = Vec::with_capacity(16);
        while pool.len() < 16 {
            let (qx, qy) = quadrants[(rng.next() % 4) as usize];
            let s = grid.node_at(
                qx + (rng.next() as usize) % half,
                qy + (rng.next() as usize) % half,
            );
            let d = grid.node_at(
                qx + (rng.next() as usize) % half,
                qy + (rng.next() as usize) % half,
            );
            if s != d {
                pool.push((s, d));
            }
        }
        Workload { hot, pool }
    }

    /// Every distinct pair, for the warmup pass.
    fn all_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.hot.iter().chain(self.pool.iter()).copied()
    }

    /// The i-th request's pair — 75% hot set, 25% pool, seeded.
    fn pair(&self, rng: &mut Rng) -> (NodeId, NodeId) {
        let roll = rng.next();
        if !roll.is_multiple_of(4) {
            self.hot[(roll >> 8) as usize % self.hot.len()]
        } else {
            self.pool[(roll >> 8) as usize % self.pool.len()]
        }
    }
}

struct ConfigResult {
    mode: &'static str,
    workers: usize,
    shards: usize,
    batch: usize,
    attempts: usize,
    completed: usize,
    shed: usize,
    updates: usize,
    elapsed: Duration,
    req_per_s: f64,
    p50: Duration,
    p99: Duration,
    p999: Duration,
    lateness_p99: Duration,
    queue_wait_p99: Duration,
    service_p99: Duration,
}

impl ConfigResult {
    fn shed_fraction(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.shed as f64 / self.attempts as f64
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Drives one (mode, workers) config through the open-loop schedule.
fn drive(
    grid: &Grid,
    workload: &Workload,
    mode: &Mode,
    workers: usize,
    requests: usize,
    rate: f64,
) -> ConfigResult {
    let db = Database::open(grid.graph())
        .expect("30x30 grid fits the engine")
        .with_fault_plan(FaultPlan::inert(PAPER_SEED).with_read_latency(READ_LATENCY));
    let registry = atis_obs::MetricsRegistry::shared();
    let service = Arc::new(RouteService::with_observability(
        db,
        ServeConfig::default()
            .with_workers(workers)
            .with_queue_capacity(QUEUE_CAPACITY)
            .with_cache_capacity(CACHE_CAPACITY)
            .with_algorithm(Algorithm::Dijkstra)
            .with_shards(mode.shards)
            .with_batch_max(mode.batch),
        Some(registry.clone()),
        None,
    ));

    // Warmup: one computed answer per distinct workload pair, before
    // any update traffic. The measured window is the steady serving
    // state — how each config *keeps* a warm cache under jams.
    let warm: Vec<atis_serve::Ticket> = workload
        .all_pairs()
        .map(|(s, d)| service.submit(s, d).expect("warmup submit"))
        .collect();
    for ticket in warm {
        ticket.wait().expect("warmup route");
    }

    // The updater: one jam per UPDATE_INTERVAL of wall clock, on a
    // seeded random grid edge, always a cost *increase* (epoch
    // semantics for congestion; a decrease is a separate, conservative
    // sweep). The stop channel doubles as the pacing clock.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let updater = {
        let service = service.clone();
        let mut rng = Rng(PAPER_SEED | 0x5bd1_e995_0000_0000);
        std::thread::spawn(move || {
            let mut installed = 0usize;
            while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(UPDATE_INTERVAL) {
                let x = (rng.next() as usize) % (GRID_K - 1);
                let y = (rng.next() as usize) % GRID_K;
                let (u, v) = if rng.next().is_multiple_of(2) {
                    (grid_node(x, y), grid_node(x + 1, y))
                } else {
                    (grid_node(y, x), grid_node(y, x + 1))
                };
                let old = service
                    .shard_snapshot()
                    .db
                    .graph()
                    .edge_cost(u, v)
                    .unwrap_or(1.0);
                if service.update_edge_cost(u, v, old * 1.1).is_ok() {
                    installed += 1;
                }
            }
            installed
        })
    };

    // The collector: waits every admitted ticket and computes the
    // coordinated-omission-safe sample from the answer's own timings
    // (late observation here cannot distort the sample).
    let (ticket_tx, ticket_rx) = mpsc::channel::<(Duration, atis_serve::Ticket)>();
    let collector = std::thread::spawn(move || {
        let mut samples: Vec<(Duration, Duration, Duration)> = Vec::new();
        let mut shed = 0usize;
        while let Ok((lateness, ticket)) = ticket_rx.recv() {
            match ticket.wait() {
                Ok(answer) => samples.push((lateness, answer.queue_wait, answer.service_time)),
                Err(ServeError::Shed { .. }) => shed += 1,
                Err(e) => panic!("bench request failed: {e}"),
            }
        }
        (samples, shed)
    });

    // The open-loop generator: submit at intended times, never waiting
    // for answers. Falling behind the schedule is *recorded* (lateness
    // joins the sample), not absorbed.
    let mut rng = Rng(PAPER_SEED | 0x0000_0001_c0ff_ee00);
    let mut shed_at_submit = 0usize;
    let start = Instant::now();
    for i in 0..requests {
        let intended = Duration::from_secs_f64(i as f64 / rate);
        let elapsed = start.elapsed();
        if elapsed < intended {
            std::thread::sleep(intended - elapsed);
        }
        let lateness = start.elapsed().saturating_sub(intended);
        let (s, d) = workload.pair(&mut rng);
        match service.submit(s, d) {
            Ok(ticket) => ticket_tx.send((lateness, ticket)).expect("collector alive"),
            Err(ServeError::Shed { .. }) => shed_at_submit += 1,
            Err(e) => panic!("bench submit failed: {e}"),
        }
    }
    // The update stream runs at its fixed rate until the last answer
    // resolves: serving is measured *under* sustained update traffic,
    // so a mode still draining its backlog keeps facing jams — the
    // condition it would face in production. Update counts therefore
    // scale with each mode's own serving window; the rate is identical.
    drop(ticket_tx);
    let (samples, shed_in_flight) = collector.join().expect("collector thread");
    let elapsed = start.elapsed();
    drop(stop_tx);
    let updates = updater.join().expect("updater thread");

    if std::env::var("BENCH_DEBUG").is_ok() {
        eprintln!(
            "  [debug {} w={}] {}",
            mode.name,
            workers,
            registry.snapshot_json()
        );
    }

    let mut latencies: Vec<Duration> = samples
        .iter()
        .map(|&(late, queued, served)| late + queued + served)
        .collect();
    let mut lateness: Vec<Duration> = samples.iter().map(|&(late, _, _)| late).collect();
    let mut queue_waits: Vec<Duration> = samples.iter().map(|&(_, q, _)| q).collect();
    let mut service_times: Vec<Duration> = samples.iter().map(|&(_, _, sv)| sv).collect();
    latencies.sort();
    lateness.sort();
    queue_waits.sort();
    service_times.sort();
    let completed = latencies.len();
    ConfigResult {
        mode: mode.name,
        workers,
        shards: mode.shards,
        batch: mode.batch,
        attempts: requests,
        completed,
        shed: shed_at_submit + shed_in_flight,
        updates,
        elapsed,
        req_per_s: completed as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        p999: percentile(&latencies, 0.999),
        lateness_p99: percentile(&lateness, 0.99),
        queue_wait_p99: percentile(&queue_waits, 0.99),
        service_p99: percentile(&service_times, 0.99),
    }
}

/// `Grid::node_at` without borrowing the grid into the updater thread.
/// The row-major id scheme is the generator's own (x * k + y).
fn grid_node(x: usize, y: usize) -> NodeId {
    NodeId((x * GRID_K + y) as u32)
}

fn main() {
    let smoke = std::env::var("SERVE_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (requests, rate, workers, out_name): (usize, f64, &[usize], &str) = if smoke {
        (
            SMOKE_REQUESTS,
            SMOKE_RATE,
            &SMOKE_WORKERS,
            "BENCH_serve_smoke.json",
        )
    } else {
        (FULL_REQUESTS, FULL_RATE, &FULL_WORKERS, "BENCH_serve.json")
    };

    let grid = Grid::new(GRID_K, CostModel::TWENTY_PERCENT, PAPER_SEED).expect("paper grid");
    // The updater thread derives node ids arithmetically; pin the
    // assumption to the generator's actual scheme once, loudly.
    assert_eq!(grid.node_at(3, 7), grid_node(3, 7), "grid id scheme moved");
    let workload = Workload::build(&grid);
    println!(
        "serve_throughput (open loop): {GRID_K}x{GRID_K} grid, {requests} requests at {rate} req/s \
         offered, 1 update per {UPDATE_INTERVAL:?}, Dijkstra, cache {CACHE_CAPACITY} entries, \
         SLO {SLO:?}, simulated disk {READ_LATENCY:?}/block read{}",
        if smoke { " [SMOKE]" } else { "" }
    );

    let mut results: Vec<ConfigResult> = Vec::new();
    for &w in workers {
        for mode in &MODES {
            let r = drive(&grid, &workload, mode, w, requests, rate);
            println!(
                "  {:<7} workers={:<2} shards={} batch={}  {:>8.1} req/s  p50 {:>9.3?}  p99 {:>9.3?}  \
                 p999 {:>9.3?}  shed {:>5.1}%  ({} updates, {:?} total)",
                r.mode,
                r.workers,
                r.shards,
                r.batch,
                r.req_per_s,
                r.p50,
                r.p99,
                r.p999,
                r.shed_fraction() * 100.0,
                r.updates,
                r.elapsed
            );
            results.push(r);
        }
    }

    // The acceptance assertion the CI gate stands on: under the same
    // sustained update traffic, every config keeps up with the offered
    // load, sheds nothing, and holds its p99 inside the SLO.
    for r in &results {
        assert!(
            r.completed * 100 >= r.attempts * 95 && r.shed == 0 && r.p99 <= SLO,
            "ACCEPTANCE: {} workers={} must complete >= 95% of the {} offered requests with \
             no sheds and p99 <= {SLO:?}, got {} completed, {} shed, p99 {:?}",
            r.mode,
            r.workers,
            r.attempts,
            r.completed,
            r.shed,
            r.p99
        );
    }

    let mut configs = String::from("[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            configs.push(',');
        }
        configs.push_str(&format!(
            r#"{{"mode":"{}","workers":{},"shards":{},"batch":{},"req_per_s":{:.2},"p50_ms":{:.3},"p99_ms":{:.3},"p999_ms":{:.3},"shed_fraction":{:.4},"attempts":{},"completed":{},"updates":{},"lateness_p99_ms":{:.3},"queue_wait_p99_ms":{:.3},"service_p99_ms":{:.3},"elapsed_ms":{:.1}}}"#,
            r.mode,
            r.workers,
            r.shards,
            r.batch,
            r.req_per_s,
            r.p50.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.p999.as_secs_f64() * 1e3,
            r.shed_fraction(),
            r.attempts,
            r.completed,
            r.updates,
            r.lateness_p99.as_secs_f64() * 1e3,
            r.queue_wait_p99.as_secs_f64() * 1e3,
            r.service_p99.as_secs_f64() * 1e3,
            r.elapsed.as_secs_f64() * 1e3,
        ));
    }
    configs.push(']');
    let json = format!(
        r#"{{"benchmark":"serve_throughput","network":"grid{GRID_K}","grid":"{GRID_K}x{GRID_K}","algorithm":"Dijkstra","open_loop":true,"slo_ms":{:.1},"requests":{requests},"rate_rps":{rate:.1},"update_interval_ms":{:.1},"cache":"{CACHE_CAPACITY} entries","io_model":"simulated disk, {}ns per block read","configs":{configs}}}"#,
        SLO.as_secs_f64() * 1e3,
        UPDATE_INTERVAL.as_secs_f64() * 1e3,
        READ_LATENCY.as_nanos(),
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{out_name}"));
    std::fs::write(&out, format!("{json}\n")).expect("write serve bench artifact");
    println!("  wrote {}", out.display());
}

//! A miniature ATIS route server — the deployment the paper's IVHS
//! context implies: in-vehicle clients query a central map database over
//! the network for routes ("travel in unfamiliar areas", Section 1.1).
//!
//! The example is deliberately thin: all serving logic — the worker
//! pool, the bounded admission queue, epoch snapshots, and the
//! invalidation-aware route cache — lives in the `atis-serve` crate
//! (`RouteService`); this file only parses lines and formats replies.
//! See `SERVING.md` for the architecture and the full wire protocol.
//!
//! Line protocol over TCP, one request per line:
//!
//! ```text
//! ROUTE <from> <to>        -> COST <c> SEGMENTS <n> EPOCH <e> VIA <id> <id> ...
//!                           | STALE <age> COST <c> SEGMENTS <n> EPOCH <e> VIA ...
//!                           |     (degraded: last good answer, <age> epochs old)
//!                           | SHED <retry_after> <reason>
//!                           |     (overload push-back; back off <retry_after> ticks)
//! EVAL <id> <id> ...       -> DIST <d> TIME <t>
//! UPDATE <from> <to> <c>   -> UPDATED <count> EPOCH <e>   (live traffic)
//! EPOCH                    -> EPOCH <e>
//! STATS                    -> STATS <json>      (metrics snapshot)
//! QUIT
//! ```
//!
//! `SHED` replaces the seed's bare `BUSY`: every refusal is typed
//! (`queue-full`, `displaced`, `deadline-expired`, `breaker-open`) and
//! carries a retry hint, so clients implement one backoff loop instead
//! of guessing. `STALE` is the degrade ladder's last rung — the route
//! served is a real route from an earlier epoch, never an invented one.
//!
//! `STATS` serves the server's `atis-obs` metrics registry verbatim as a
//! single-line JSON document,
//! `{"counters":{...},"gauges":{...},"histograms":{...}}` —
//! deterministic key order, so two identical servers produce identical
//! snapshots. Alongside the per-run metrics (`runs_total`,
//! `iterations_per_run`, …) the snapshot now carries the serving layer:
//! `serve_requests_total`, per-worker counters, queue histograms, and the
//! route-cache counters `cache_hits_total` / `cache_misses_total` /
//! `cache_invalidations_total`.
//!
//! Run `--serve [port]` for a real server, or with no arguments for a
//! self-test that spins the server up on an ephemeral port and exercises
//! it with a client, including a live traffic update between two
//! identical queries and a cache-hit check.
//!
//! ```sh
//! cargo run --release --example route_server            # self-test
//! cargo run --release --example route_server -- --serve # listen on 4750
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::wildcard_enum_match_arm
)]

use atis::obs::MetricsRegistry;
use atis::serve::{RouteOutcome, RouteService, ServeConfig, ServeError};
use atis::{CostModel, Grid, NodeId, Path, RoutePlanner};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn respond(service: &RouteService, line: &str) -> String {
    let mut parts = line.split_whitespace();
    let parse_node = |t: Option<&str>| -> Result<NodeId, String> {
        let t = t.ok_or("missing node id")?;
        let id: u32 = t.parse().map_err(|_| format!("bad node id {t:?}"))?;
        Ok(NodeId(id))
    };
    match parts.next() {
        Some("ROUTE") => (|| -> Result<String, String> {
            let s = parse_node(parts.next())?;
            let d = parse_node(parts.next())?;
            match service.route(s, d) {
                Ok(answer) => match answer.path {
                    Some(p) => {
                        let body = format!(
                            "COST {:.4} SEGMENTS {} EPOCH {} VIA {}",
                            p.cost,
                            p.len(),
                            answer.epoch,
                            p.nodes
                                .iter()
                                .map(|n| n.0.to_string())
                                .collect::<Vec<_>>()
                                .join(" ")
                        );
                        Ok(match answer.outcome {
                            RouteOutcome::Stale { age } => format!("STALE {age} {body}"),
                            RouteOutcome::Computed
                            | RouteOutcome::CacheHit
                            | RouteOutcome::Degraded { .. } => body,
                        })
                    }
                    None => Err("unreachable".into()),
                },
                Err(ServeError::Shed {
                    reason,
                    retry_after,
                    ..
                }) => Ok(format!("SHED {retry_after} {}", reason.label())),
                Err(e) => Err(e.to_string()),
            }
        })()
        .unwrap_or_else(|e| format!("ERR {e}")),
        Some("EVAL") => (|| -> Result<String, String> {
            let nodes: Vec<NodeId> = parts
                .map(|t| {
                    t.parse::<u32>()
                        .map(NodeId)
                        .map_err(|_| format!("bad id {t:?}"))
                })
                .collect::<Result<_, _>>()?;
            if nodes.len() < 2 {
                return Err("need at least two nodes".into());
            }
            // One consistent snapshot for the whole evaluation — a
            // concurrent UPDATE cannot change costs mid-walk.
            let snapshot = service.shard_snapshot();
            if let Some(bad) = nodes.iter().find(|n| !snapshot.db.graph().contains(**n)) {
                return Err(format!("unknown node {bad}"));
            }
            let cost = nodes
                .iter()
                .zip(nodes.iter().skip(1))
                .map(|(&a, &b)| snapshot.db.graph().edge_cost(a, b).ok_or("not a road"))
                .sum::<Result<f64, _>>()?;
            let path = Path { nodes, cost };
            let (distance, travel_time, _io) = snapshot
                .db
                .evaluate_route(&path)
                .map_err(|e| e.to_string())?;
            Ok(format!("DIST {distance:.4} TIME {travel_time:.4}"))
        })()
        .unwrap_or_else(|e| format!("ERR {e}")),
        Some("UPDATE") => (|| -> Result<String, String> {
            let u = parse_node(parts.next())?;
            let v = parse_node(parts.next())?;
            let c: f64 = parts
                .next()
                .ok_or("missing cost")?
                .parse()
                .map_err(|_| "bad cost".to_string())?;
            let update = service
                .update_edge_cost(u, v, c)
                .map_err(|e| e.to_string())?;
            Ok(format!("UPDATED {} EPOCH {}", update.updated, update.epoch))
        })()
        .unwrap_or_else(|e| format!("ERR {e}")),
        Some("EPOCH") => format!("EPOCH {}", service.epoch()),
        Some("STATS") => match service.shard_snapshot().db.metrics() {
            Some(m) => format!("STATS {}", m.snapshot_json()),
            None => "ERR no metrics registry attached".to_string(),
        },
        Some("QUIT") => "BYE".to_string(),
        _ => "ERR unknown command".to_string(),
    }
}

fn serve(listener: TcpListener, service: Arc<RouteService>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let service = service.clone();
        std::thread::spawn(move || handle(stream, &service));
    }
}

fn handle(stream: TcpStream, service: &RouteService) {
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    // A client that stops draining its socket (or vanishes mid-response)
    // must not park this connection thread on a blocking write forever:
    // the write fails after the timeout and the connection is dropped.
    let _ = writer.set_write_timeout(Some(Duration::from_secs(5)));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let reply = respond(service, &line);
        let done = reply == "BYE";
        if writeln!(writer, "{reply}").is_err() {
            break;
        }
        if done {
            break;
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::new(12, CostModel::TWENTY_PERCENT, 3)?;
    let registry = MetricsRegistry::shared();
    // The planner configures the database (metrics here; budgets, join
    // policy, … in general) and hands it to the serving layer.
    let db = RoutePlanner::new(grid.graph())?
        .with_metrics(registry.clone())
        .into_database();
    let service = Arc::new(RouteService::with_observability(
        db,
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_cache_capacity(256),
        Some(registry),
        None,
    ));

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve") {
        let port: u16 = args.get(1).map(|p| p.parse()).transpose()?.unwrap_or(4750);
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        println!("ATIS route server on 127.0.0.1:{port} (12x12 grid map, 4 workers)");
        serve(listener, service);
        return Ok(());
    }

    // --- self-test ---------------------------------------------------------
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    {
        let service = service.clone();
        std::thread::spawn(move || serve(listener, service));
    }

    let mut client = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(client.try_clone()?);
    let mut ask = |req: &str| -> std::io::Result<String> {
        writeln!(client, "{req}")?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        println!("> {req}\n< {}", line.trim_end());
        Ok(line.trim_end().to_string())
    };

    assert_eq!(ask("EPOCH")?, "EPOCH 0");

    let first = ask("ROUTE 0 143")?;
    assert!(first.starts_with("COST "), "{first}");
    assert!(first.contains(" EPOCH 0 "), "{first}");
    let via: Vec<u32> = first
        .split(" VIA ")
        .nth(1)
        .ok_or("ROUTE reply missing its VIA clause")?
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()?;

    // The identical query again: answered from the route cache, and the
    // reply must be byte-identical to the fresh computation.
    let again = ask("ROUTE 0 143")?;
    assert_eq!(first, again, "a cache hit must serve the identical answer");

    let eval = ask(&format!(
        "EVAL {}",
        via.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    ))?;
    assert!(eval.starts_with("DIST "), "{eval}");

    // Jam the first hop of the returned route: a new epoch is installed
    // and the jammed cache entry is invalidated, so the re-query computes
    // fresh — and the route changes.
    let (hop_a, hop_b) = match *via.as_slice() {
        [a, b, ..] => (a, b),
        _ => return Err("returned route has no first hop to jam".into()),
    };
    let update = ask(&format!("UPDATE {hop_a} {hop_b} 50.0"))?;
    assert!(update.starts_with("UPDATED "), "{update}");
    assert!(update.ends_with("EPOCH 1"), "{update}");
    let second = ask("ROUTE 0 143")?;
    assert!(second.starts_with("COST "), "{second}");
    assert!(second.contains(" EPOCH 1 "), "{second}");
    assert_ne!(first, second, "the jammed route must change");

    // Opposite corners share no edge: nothing to update, so nothing is
    // installed — same epoch, and the route just cached stays cached.
    assert_eq!(ask("UPDATE 0 143 1.0")?, "UPDATED 0 EPOCH 1");

    // The metrics registry has seen both computed ROUTE runs (the cache
    // hit ran no algorithm) plus the serving-layer and cache counters;
    // the snapshot is one JSON line and is stable between requests that
    // do no work.
    let stats = ask("STATS")?;
    assert!(stats.starts_with(r#"STATS {"counters":{"#), "{stats}");
    assert!(stats.contains(r#""runs_total":2"#), "{stats}");
    assert!(stats.contains(r#""cache_hits_total":1"#), "{stats}");
    assert!(stats.contains(r#""cache_misses_total":2"#), "{stats}");
    assert!(
        stats.contains(r#""cache_invalidations_total":1"#),
        "{stats}"
    );
    assert!(stats.contains(r#""serve_requests_total":3"#), "{stats}");
    assert!(stats.contains(r#""iterations_per_run""#), "{stats}");
    assert!(stats.contains(r#""serve_install_seconds""#), "{stats}");
    let again = ask("STATS")?;
    assert_eq!(stats, again, "STATS must be deterministic when idle");

    assert!(ask("NOPE")?.starts_with("ERR"));

    // Malformed and out-of-range requests: every one must come back as a
    // protocol-level ERR line — the connection stays up, the server never
    // panics, and the next request still works.
    for bad in [
        "",                   // empty line
        "ROUTE",              // missing both ids
        "ROUTE 0",            // missing destination
        "ROUTE zero one",     // unparsable ids
        "ROUTE 0 99999",      // unknown destination
        "ROUTE 99999 0",      // unknown source
        "ROUTE 4294967296 0", // id overflows u32
        "ROUTE -1 143",       // negative id
        "EVAL 5",             // fewer than two nodes
        "EVAL 0 99999",       // out-of-range node
        "EVAL 0 7",           // known nodes, but not a road
        "UPDATE 0 1",         // missing cost
        "UPDATE 0 1 fast",    // unparsable cost
        "UPDATE 0 1 NaN",     // parses, but rejected by the planner
        "UPDATE 0 1 -3.0",    // negative cost
        "UPDATE 99999 0 2.0", // unknown endpoint
        "route 0 143",        // commands are case-sensitive
        "ROUTE\u{0} 0 143",   // control bytes in the verb
    ] {
        let reply = ask(bad)?;
        assert!(reply.starts_with("ERR "), "{bad:?} -> {reply:?}");
    }
    let after = ask("ROUTE 0 143")?;
    assert!(
        after.starts_with("COST "),
        "server must survive malformed input: {after}"
    );
    assert_eq!(after, second, "this is the cached epoch-1 answer");

    // A client that disconnects mid-response: submit work, then vanish
    // without reading the reply. The connection thread's write fails (or
    // times out) and is reaped; the server must keep serving everyone
    // else — no worker may stay parked on the dead socket.
    for _ in 0..3 {
        let mut rude = TcpStream::connect(addr)?;
        writeln!(rude, "ROUTE 0 143")?;
        rude.shutdown(std::net::Shutdown::Both)?;
        drop(rude);
    }
    let alive = ask("EPOCH")?;
    assert!(
        alive.starts_with("EPOCH "),
        "server must survive mid-response disconnects: {alive}"
    );
    let again = ask("ROUTE 0 143")?;
    assert_eq!(again, second, "routing still works after rude clients");

    assert_eq!(ask("QUIT")?, "BYE");
    println!("\nself-test passed: pooled serving, cache hits, and live updates agree");
    Ok(())
}

//! End-to-end tests of the observability layer: the event-delta partition
//! invariant, the no-sink bit-identity guarantee, JSONL output, metrics,
//! injected faults in the event stream, and the model-vs-measured report
//! at the paper's tolerance.

use atis::algorithms::duplicates::run_with_duplicate_policy;
use atis::algorithms::{
    AStarVersion, Algorithm, Database, DuplicatePolicy, Estimator, FrontierKind, Hierarchy,
    HierarchyConfig, LandmarkTables, PreprocessConfig, RunTrace,
};
use atis::costmodel::{Model, ModelParams};
use atis::obs::{IterationPhase, JsonlSink, MetricsRegistry, ModelReport, RingSink, TraceEvent};
use atis::storage::{FaultPlan, IoStats, JoinPolicy, StorageProfile};
use atis::{CostModel, Grid, NodeId, QueryKind};
use std::sync::Arc;

fn grid8() -> Grid {
    Grid::new(8, CostModel::TWENTY_PERCENT, 1993).unwrap()
}

/// A database every preset can run against: landmark tables (v4) and a
/// hierarchy (v5) attached.
fn db_with_artifacts(grid: &Grid) -> Database {
    let graph = grid.graph();
    Database::open(graph)
        .unwrap()
        .with_landmarks(LandmarkTables::build(graph, PreprocessConfig::grid_default()).unwrap())
        .with_hierarchy(Hierarchy::build(graph, HierarchyConfig::paper()).unwrap())
}

/// One way to run a database-resident search from `s` to `d`.
type Preset = Box<dyn Fn(&Database, NodeId, NodeId) -> RunTrace>;

/// Every preset: the iterative algorithm, Dijkstra, A\* versions 1–5,
/// the eight custom frontier × estimator combinations, and the three
/// duplicate policies.
fn every_preset() -> Vec<Preset> {
    let mut algorithms = vec![Algorithm::Iterative, Algorithm::Dijkstra];
    algorithms.extend(AStarVersion::ALL_WITH_HIERARCHY.map(Algorithm::AStar));
    for frontier in [
        FrontierKind::StatusAttribute,
        FrontierKind::SeparateRelation,
    ] {
        for estimator in [
            Estimator::Zero,
            Estimator::Euclidean,
            Estimator::Manhattan,
            Estimator::WeightedManhattan { weight: 0.5 },
        ] {
            algorithms.push(Algorithm::Custom {
                frontier,
                estimator,
            });
        }
    }
    let mut presets: Vec<Preset> = Vec::new();
    for alg in algorithms {
        presets.push(Box::new(move |db, s, d| db.run(alg, s, d).unwrap()));
    }
    for policy in DuplicatePolicy::ALL {
        presets.push(Box::new(move |db, s, d| {
            run_with_duplicate_policy(db, s, d, Estimator::Manhattan, policy).unwrap()
        }));
    }
    presets
}

/// The tentpole invariant: the emitted iteration events partition the
/// run's I/O. Summing every event's `io_delta` reproduces the run's
/// total `IoStats` exactly — to the counter — for every preset, and the
/// per-step `StepIo` totals agree.
#[test]
fn iteration_deltas_partition_the_run_io_for_all_five_algorithms() {
    let grid = grid8();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let base = db_with_artifacts(&grid);
    for preset in every_preset() {
        let ring = RingSink::shared(100_000);
        let db = base.clone().with_trace_sink(ring.clone());
        let trace = preset(&db, s, d);

        let mut summed = IoStats::new();
        let mut init_events = 0;
        let mut search_events = 0;
        let mut finish_events = 0;
        let events = ring.events();
        for event in &events {
            if let TraceEvent::Iteration(ev) = event {
                summed += ev.io_delta;
                match ev.phase {
                    IterationPhase::Init => init_events += 1,
                    IterationPhase::Search => search_events += 1,
                    IterationPhase::Finish => finish_events += 1,
                }
            }
        }
        let label = trace.algorithm.as_str();
        assert!(
            matches!(events.first(), Some(TraceEvent::RunStarted { .. })),
            "{label}: the stream opens with RunStarted"
        );
        assert!(
            matches!(events.last(), Some(TraceEvent::RunFinished { .. })),
            "{label}: the stream closes with RunFinished"
        );
        assert_eq!(summed, trace.io, "{label}: summed deltas != run IoStats");
        assert_eq!(
            summed,
            trace.steps.total(),
            "{label}: deltas != step breakdown"
        );
        // One init span covers the initialisation a run charged; version
        // 5 builds no relation, so it has neither.
        let initialises = trace.steps.init != IoStats::new();
        assert_eq!(
            init_events,
            u64::from(initialises),
            "{label}: exactly one init event"
        );
        assert_eq!(initialises, !label.contains("version 5"), "{label}");
        assert_eq!(finish_events, 1, "{label}: exactly one finish event");
        assert_eq!(
            search_events, trace.iterations,
            "{label}: one search event per main-loop iteration"
        );
        assert_eq!(
            ring.dropped(),
            0,
            "{label}: ring must not overflow in this test"
        );
    }
}

/// Attaching a sink must not perturb the engine: `IoStats`, iteration
/// counts and the discovered path are bit-identical with and without
/// one, for every preset.
#[test]
fn tracing_leaves_iostats_and_paths_bit_identical() {
    let grid = grid8();
    let bare = db_with_artifacts(&grid);
    let traced = bare
        .clone()
        .with_trace_sink(RingSink::shared(1 << 16))
        .with_metrics(MetricsRegistry::shared());
    for kind in [
        QueryKind::Horizontal,
        QueryKind::Diagonal,
        QueryKind::Random,
    ] {
        let (s, d) = grid.query_pair(kind);
        for preset in every_preset() {
            let (a, b) = (preset(&bare, s, d), preset(&traced, s, d));
            assert_eq!(a.io, b.io, "{}: IoStats must be identical", a.algorithm);
            assert_eq!(a.steps, b.steps, "{}: step breakdown", a.algorithm);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.expansion_order, b.expansion_order);
            assert_eq!(
                a.path.as_ref().map(|p| &p.nodes),
                b.path.as_ref().map(|p| &p.nodes),
                "{}: path must be identical",
                a.algorithm
            );
        }
    }
}

/// Event stream structure: RunStarted first, RunFinished last, iteration
/// numbers strictly increasing, `io_total` telescoping over the deltas;
/// an injected fault appears in the stream of the run it killed.
#[test]
fn event_stream_is_ordered_and_telescopes() {
    let grid = grid8();
    let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
    let ring = RingSink::shared(1 << 16);
    let db = Database::open(grid.graph())
        .unwrap()
        .with_trace_sink(ring.clone());
    db.run(Algorithm::Dijkstra, s, d).unwrap();

    let events = ring.events();
    assert!(matches!(
        events.first(),
        Some(TraceEvent::RunStarted { .. })
    ));
    assert!(matches!(
        events.last(),
        Some(TraceEvent::RunFinished { .. })
    ));

    let mut running = IoStats::new();
    let mut last_iteration = None;
    for event in &events {
        if let TraceEvent::Iteration(ev) = event {
            running += ev.io_delta;
            assert_eq!(running, ev.io_total, "io_total must telescope");
            if ev.phase == IterationPhase::Search {
                let expected = last_iteration.map_or(1, |n: u64| n + 1);
                assert_eq!(ev.iteration, expected, "iterations must be consecutive");
                last_iteration = Some(ev.iteration);
                assert!(
                    ev.selected.is_some(),
                    "best-first search events name a node"
                );
            }
        }
    }

    ring.clear();
    let metrics = MetricsRegistry::shared();
    let faulty = db
        .with_fault_plan(FaultPlan::inert(1).with_read_failure_rate(1.0))
        .with_metrics(metrics.clone());
    assert!(faulty.run(Algorithm::Dijkstra, s, d).is_err());
    assert!(
        ring.events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Fault { .. })),
        "faults in stream"
    );
    assert!(metrics.counter("faults_injected_total") >= 1);
}

/// A JSONL sink writes one well-formed line per event, and identical runs
/// produce byte-identical transcripts.
#[test]
fn jsonl_transcripts_are_deterministic() {
    let grid = grid8();
    let (s, d) = grid.query_pair(QueryKind::Horizontal);
    let transcript = |_: u32| {
        let buf = Arc::new(std::sync::Mutex::new(Vec::new()));
        struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(JsonlSink::from_writer(Shared(buf.clone())));
        let db = Database::open(grid.graph())
            .unwrap()
            .with_trace_sink(sink.clone());
        db.run(Algorithm::AStar(AStarVersion::V2), s, d).unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.write_errors(), 0);
        let bytes = buf.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    };
    let a = transcript(0);
    let b = transcript(1);
    assert_eq!(a, b, "identical runs must produce identical JSONL");
    assert!(a.lines().count() > 3);
    for line in a.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object: {line}"
        );
        assert!(
            line.contains(r#""type":""#),
            "missing discriminator: {line}"
        );
    }
    assert!(a
        .lines()
        .next()
        .unwrap()
        .contains(r#""type":"run_started""#));
    assert!(a
        .lines()
        .last()
        .unwrap()
        .contains(r#""type":"run_finished""#));
}

/// The metrics registry aggregates across runs: totals equal the sums of
/// the individual traces.
#[test]
fn metrics_aggregate_across_runs() {
    let grid = grid8();
    let metrics = MetricsRegistry::shared();
    let db = db_with_artifacts(&grid).with_metrics(metrics.clone());
    let mut iterations = 0;
    let mut reads = 0;
    for kind in [QueryKind::Horizontal, QueryKind::Diagonal] {
        let (s, d) = grid.query_pair(kind);
        for alg in [Algorithm::Dijkstra, Algorithm::Iterative] {
            let t = db.run(alg, s, d).unwrap();
            iterations += t.iterations;
            reads += t.io.block_reads;
        }
    }
    assert_eq!(metrics.counter("runs_total"), 4);
    assert_eq!(metrics.counter("runs_failed_total"), 0);
    assert_eq!(metrics.counter("iterations_total"), iterations);
    assert_eq!(metrics.counter("io_block_reads_total"), reads);
    assert_eq!(metrics.histogram("iterations_per_run").unwrap().count, 4);
    let snapshot = metrics.snapshot_json();
    assert!(snapshot.contains(r#""runs_total":4"#), "{snapshot}");
    // The overlay's size is a gauge: what the benches gate, a poller sees.
    let overlay = db.hierarchy().unwrap();
    assert_eq!(
        (
            metrics.gauge("hierarchy_arcs"),
            metrics.gauge("hierarchy_triangles")
        ),
        (overlay.arc_count() as u64, overlay.build_report().triangles)
    );
    // The layout gauges of `S`: segment count, blocks per segment, total
    // blocks and bytes, and the pool's capacity — for the paper's single
    // heap file (224 arcs, two blocks, no pool), for a segmented 30x30
    // grid (3480 arcs, 28 blocks in four 8-block segments, the 16-block
    // pool of its scale) and for the paper's layout cached in a 24-block
    // pool.
    let layout = |m: &MetricsRegistry| {
        [
            "storage_segment_count",
            "storage_segment_blocks",
            "storage_blocks",
            "storage_bytes",
            "storage_buffer_capacity_blocks",
        ]
        .map(|g| m.gauge(g))
    };
    assert_eq!(layout(&metrics), [1, 2, 2, 2 * 4096, 0]);
    let grid30 = Grid::new(30, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let segmented = MetricsRegistry::shared();
    let _db = Database::open_with_profile(grid30.graph(), StorageProfile::for_nodes(900))
        .unwrap()
        .with_metrics(segmented.clone());
    assert_eq!(layout(&segmented), [4, 8, 28, 28 * 4096, 16]);
    let pooled = MetricsRegistry::shared();
    let pool_only = StorageProfile {
        buffer_blocks: Some(24),
        ..StorageProfile::paper()
    };
    let _db = Database::open_with_profile(grid.graph(), pool_only)
        .unwrap()
        .with_metrics(pooled.clone());
    assert_eq!(layout(&pooled), [1, 2, 2, 2 * 4096, 24]);
}

/// The report module reproduces the paper's validation claim on live
/// runs: predicted vs measured total within ten percent for the three
/// modelled algorithms (Tables 2–3), on the paper's own 30x30 workload —
/// under the paper's forced nested-loop join and under the cost-based
/// policy the serving stack runs, each priced at the database's own
/// policy.
#[test]
fn model_vs_measured_report_stays_within_ten_percent() {
    let grid = Grid::new(30, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let db = Database::open(grid.graph()).unwrap();
    let cost_based = Database::open(grid.graph())
        .unwrap()
        .with_join_policy(JoinPolicy::CostBased);
    let mp = ModelParams::for_grid(30);

    for (db, alg) in [
        (&db, Algorithm::Dijkstra),
        (&db, Algorithm::AStar(AStarVersion::V3)),
        (&cost_based, Algorithm::Dijkstra),
    ] {
        let t = db.run(alg, s, d).unwrap();
        let model = Model::table_3(&mp, db.join_policy());
        let report = ModelReport::new(&t.algorithm, t.iterations, &t.steps, &model, 0.10);
        assert!(
            report.within_tolerance(),
            "{} under {:?} diverges:\n{}",
            t.algorithm,
            db.join_policy(),
            report.render()
        );
    }
    let t = db.run(Algorithm::Iterative, s, d).unwrap();
    let model = Model::table_2(&mp, db.join_policy(), mp.avg_current(t.iterations));
    let report = ModelReport::new(&t.algorithm, t.iterations, &t.steps, &model, 0.10);
    // Table 2 prices the relax/flip step with a simplification the
    // physical engine undercuts, so one *step* diverges; the paper's
    // "within ten percent" claim is about the run total, which holds.
    assert!(
        report.total_relative_error() <= 0.10,
        "Iterative total diverges:\n{}",
        report.render()
    );
    let divergent: Vec<_> = report.divergent().iter().map(|r| r.step.clone()).collect();
    assert!(
        divergent.is_empty() || divergent == vec!["update (C7)".to_string()],
        "unexpected divergent steps {divergent:?}:\n{}",
        report.render()
    );
}

/// Budget headroom is visible per iteration when budgets are set.
#[test]
fn iteration_events_carry_budget_headroom() {
    use atis::algorithms::Budgets;
    let grid = grid8();
    let (s, d) = grid.query_pair(QueryKind::Horizontal);
    let ring = RingSink::shared(1 << 16);
    let db = Database::open(grid.graph())
        .unwrap()
        .with_budgets(Budgets::unlimited().with_max_iterations(1_000))
        .with_trace_sink(ring.clone());
    db.run(Algorithm::Dijkstra, s, d).unwrap();
    let headrooms: Vec<u64> = ring
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Iteration(ev) if ev.phase == IterationPhase::Search => {
                ev.budget_iterations_left
            }
            _ => None,
        })
        .collect();
    assert!(!headrooms.is_empty());
    for pair in headrooms.windows(2) {
        assert_eq!(pair[0] - 1, pair[1], "headroom must count down by one");
    }
}

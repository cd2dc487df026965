//! Trace one run: stream every iteration of A* (version 2) on an 8x8
//! grid as JSON Lines to stdout, then print the metrics snapshot and the
//! model-vs-measured report to stderr.
//!
//! This is the script that generated the transcript annotated in
//! `OBSERVABILITY.md`:
//!
//! ```sh
//! cargo run --release --example trace_run > trace.jsonl
//! ```

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::costmodel::{Model, ModelParams};
use atis::obs::{JsonlSink, MetricsRegistry, ModelReport};
use atis::{CostModel, Grid, QueryKind};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 1993)?;
    let (start, dest) = grid.query_pair(QueryKind::Diagonal);

    let sink = Arc::new(JsonlSink::from_writer(std::io::stdout()));
    let metrics = MetricsRegistry::shared();
    let db = Database::open(grid.graph())?
        .with_trace_sink(sink.clone())
        .with_metrics(metrics.clone());

    let trace = db.run(Algorithm::AStar(AStarVersion::V2), start, dest)?;
    sink.flush()?;

    let model = Model::table_3(&ModelParams::for_grid(8), db.join_policy());
    let report = ModelReport::new(
        &trace.algorithm,
        trace.iterations,
        &trace.steps,
        &model,
        0.10,
    );
    eprintln!("{}", report.render());
    eprintln!("{}", metrics.snapshot_json());
    Ok(())
}

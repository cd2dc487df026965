//! The metric catalogue: every name the harness prints, its unit, which
//! way is better, and — for the end-to-end metrics — the bound by which it
//! may worsen before `compare` calls it a regression.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How much worse a metric may get before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value.
    Relative(f64),
    /// An absolute amount, in the metric's unit.
    Absolute(f64),
    /// The count must repeat exactly.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `None` for per-layer metrics: they explain, they do not gate.
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Exact, Relative};

/// The end-to-end metrics (ISSUE 11's thirteen and `cpu_ms_per_route`),
/// in report order, with ISSUE 11's bounds: what `compare` applies. The
/// growth driver's own, wider bounds are in `contract.rs`.
pub const END_TO_END: [Metric; 14] = [
    e2e("setup_s", "s", Lower, Relative(0.10)),
    e2e("route_p50_ms", "ms", Lower, Relative(0.10)),
    e2e("route_p99_ms", "ms", Lower, Relative(0.10)),
    e2e("route_hi_p99_ms", "ms", Lower, Relative(0.10)),
    e2e("slo_miss_frac", "share", Lower, Absolute(0.02)),
    e2e("fail_frac", "share", Lower, Absolute(0.005)),
    e2e("degraded_frac", "share", Lower, Absolute(0.005)),
    e2e("sat_routes_per_s", "1/s", Higher, Relative(0.10)),
    e2e("cpu_ms_per_route", "ms", Lower, Relative(0.10)),
    e2e("update_inc_p50_ms", "ms", Lower, Relative(0.10)),
    e2e("update_dec_p50_ms", "ms", Lower, Relative(0.10)),
    e2e("cost_units_per_route", "units", Lower, Exact),
    e2e("peak_rss_mb", "MB", Lower, Relative(0.10)),
    e2e("wrong_answers", "count", Lower, Exact),
];

/// The per-layer metrics of the traced run, layer by layer.
pub const PER_LAYER: [Metric; 63] = [
    layer("graph.generate_ms", "ms", Lower),
    layer("graph.partition_ms", "ms", Lower),
    layer("graph.cost_fingerprint_us", "us", Lower),
    layer("graph.clone_ms", "ms", Lower),
    layer("storage.open_ms", "ms", Lower),
    layer("storage.adjacency_fetch_us", "us", Lower),
    layer("storage.adjacency_reads_per_probe", "count", Lower),
    layer("storage.edge_update_us", "us", Lower),
    layer("storage.physical_reads_per_route.v5", "count", Lower),
    layer("storage.physical_reads_per_route.v4", "count", Lower),
    layer("storage.pool_hit_rate.v4", "share", Higher),
    layer("preprocess.build_ms", "ms", Lower),
    layer("preprocess.patch_ms", "ms", Lower),
    layer("preprocess.rebuild_ms", "ms", Lower),
    layer("preprocess.bound_us", "us", Lower),
    layer("hierarchy.build_ms", "ms", Lower),
    layer("hierarchy.arcs", "count", Lower),
    layer("hierarchy.clone_ms", "ms", Lower),
    layer("hierarchy.customize_ms", "ms", Lower),
    layer("hierarchy.recontract_ms", "ms", Lower),
    layer("algorithms.v5.run_us", "us", Lower),
    layer("algorithms.v5.iterations_per_route", "count", Lower),
    layer("algorithms.v5.block_reads_per_route", "count", Lower),
    layer("algorithms.v5.cost_units_per_route", "units", Lower),
    layer("algorithms.v4.run_us", "us", Lower),
    layer("algorithms.v4.iterations_per_route", "count", Lower),
    layer("algorithms.v4.block_reads_per_route", "count", Lower),
    layer("algorithms.v4.cost_units_per_route", "units", Lower),
    layer("algorithms.v3.run_us", "us", Lower),
    layer("algorithms.v3.iterations_per_route", "count", Lower),
    layer("algorithms.v3.block_reads_per_route", "count", Lower),
    layer("algorithms.v3.cost_units_per_route", "units", Lower),
    layer("algorithms.dijkstra.run_us", "us", Lower),
    layer("algorithms.dijkstra.iterations_per_route", "count", Lower),
    layer("algorithms.dijkstra.block_reads_per_route", "count", Lower),
    layer("algorithms.dijkstra.cost_units_per_route", "units", Lower),
    layer("algorithms.v5.trivial_run_us", "us", Lower),
    layer("algorithms.db_clone_ms", "ms", Lower),
    layer("core.plan_us", "us", Lower),
    layer("serve.snapshot_us", "us", Lower),
    layer("serve.cache_lookup_us", "us", Lower),
    layer("serve.cache_insert_us", "us", Lower),
    layer("serve.cache_sweep_ms", "ms", Lower),
    layer("serve.install_inc_ms", "ms", Lower),
    layer("serve.install_dec_ms", "ms", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.hit_route_us", "us", Lower),
    layer("serve.miss_overhead_us", "us", Lower),
    layer("serve.cache_hit_rate", "share", Higher),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.cache_invalidations_per_update", "count", Lower),
    layer("serve.shed_frac", "share", Lower),
    layer("serve.stale_frac", "share", Lower),
    layer("serve.batched_runs", "count", Higher),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p99_us", "us", Lower),
    layer("serve.service_p50_us", "us", Lower),
    layer("serve.service_p99_us", "us", Lower),
    layer("serve.lateness_p99_ms", "ms", Lower),
    layer("obs.trace_overhead_frac", "share", Lower),
    layer("obs.events_per_route", "count", Lower),
    layer("obs.sink_dropped", "count", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The catalogue's own `&'static str` for a per-layer name put together at
/// run time.
///
/// # Panics
/// If the catalogue has no such metric: a probe measuring something the
/// catalogue does not list is a bug in the harness.
pub fn per_layer(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or_else(|| panic!("{name} is not a per-layer metric"), |m| m.name)
}

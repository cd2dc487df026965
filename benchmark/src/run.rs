//! One run of one workload: set-up, warm-up, the timed phases, the
//! correctness check, and — in a traced run — the layer probes.

use crate::inputs::{self, Inputs};
use crate::load::{self, Checker, PhaseResult, Sampled, UpdateLog, LATENESS_LIMIT_MS};
use crate::probe::{self, ProbeCounts, Recorder};
use crate::stack::{self, Stack, PRIMARY};
use crate::stats;
use crate::verify;
use crate::workload::Workload;
use atis_algorithms::Database;
use atis_graph::Graph;
use atis_obs::{MetricsRegistry, RingSink, SharedRegistry};
use atis_serve::{CacheStats, RouteOutcome, RouteService};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Answers re-priced against the oracle per run.
const ORACLE_SAMPLE: usize = 200;
/// Events the traced run's ring keeps before it starts dropping.
const RING_CAPACITY: usize = 1 << 18;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// One measured value: `None` when the sample does not support it (a
/// tail percentile with fewer than ten samples beyond it, an update
/// latency on a workload without updates).
#[derive(Debug, Clone)]
pub struct Observation {
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
}

impl Observation {
    fn of(value: f64, n: usize) -> Observation {
        Observation {
            value: Some(value),
            n,
        }
    }
}

pub struct Report {
    pub digest: u64,
    /// Open-loop phases the generator could not keep up with (see
    /// `load::generator_limited`); each is also one of `problems`.
    pub generator_limited: Vec<String>,
    /// How late the generator ran in each open-loop phase: the phase's
    /// name and the p50, p90 and p99 of its lateness, ms.
    pub lateness_ms: Vec<(String, [f64; 3])>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    /// Why `correct` is false, or why the run must not be trusted.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Observation>,
    /// Human-readable lines (phases, reconciliation) printed before the
    /// metric table.
    pub notes: Vec<String>,
}

/// The timed part of a run: what every phase observed.
struct Timed {
    warmup: PhaseResult,
    /// The workload's open-loop phases with their rates, lowest first.
    open: Vec<(f64, PhaseResult)>,
    /// The saturation phase, where the workload has one.
    sat: Option<PhaseResult>,
    updates: UpdateLog,
    /// Process CPU seconds (all threads) over the open-loop phases.
    open_loop_cpu_s: f64,
    cache: CacheStats,
}

impl Timed {
    /// Every phase with its name in the report.
    fn phases(&self) -> Vec<(String, &PhaseResult)> {
        let mut all = vec![("warm-up".to_string(), &self.warmup)];
        for (rate, phase) in &self.open {
            all.push((format!("open loop {rate:.0}/s"), phase));
        }
        if let Some(sat) = &self.sat {
            all.push(("saturation".to_string(), sat));
        }
        all
    }
}

/// The cache counters the report uses, over an interval.
fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidations: after.invalidations - before.invalidations,
        evictions: after.evictions - before.evictions,
        ..CacheStats::default()
    }
}

/// Warm-up pass, then the workload's open-loop phases and its saturation
/// phase, with the updater (if the workload has one) running beside them.
fn drive(service: &RouteService, w: &Workload, graph: &Graph, inputs: &Inputs, seed: u64) -> Timed {
    let updates_started = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let checker = Checker {
        graph,
        updates_started: &updates_started,
    };
    let warmup = load::sequential(service, &inputs.warmup, &checker, 0, seed);
    let cache_before = service.cache().stats();
    let cpu0 = cpu_seconds();
    let saturates = inputs.seconds.saturation > 0.0;
    // The oracle's sample, shared out evenly over the timed phases.
    let keep = ORACLE_SAMPLE / (inputs.open.len() + usize::from(saturates));
    let (open, sat, updates, open_loop_cpu_s) = std::thread::scope(|scope| {
        let updater = (!inputs.updates.is_empty()).then(|| {
            scope.spawn(|| {
                load::updater(
                    service,
                    &inputs.updates,
                    inputs.update_interval,
                    &updates_started,
                    &stop,
                )
            })
        });
        let open: Vec<(f64, PhaseResult)> = w
            .open
            .iter()
            .zip(&inputs.open)
            .zip(1..)
            .map(|((spec, phase), k)| {
                let result = load::open_loop(service, phase, &checker, keep, seed + k);
                (spec.rate, result)
            })
            .collect();
        let open_loop_cpu_s = cpu_seconds() - cpu0;
        let sat = saturates.then(|| {
            load::closed_loop(
                service,
                &inputs.saturation,
                inputs.seconds.saturation,
                inputs.seconds.saturation_ramp,
                &checker,
                keep,
                seed,
            )
        });
        stop.store(true, Ordering::SeqCst);
        let updates = updater.map_or_else(UpdateLog::default, |u| {
            u.join().expect("the updater panicked")
        });
        (open, sat, updates, open_loop_cpu_s)
    });
    Timed {
        warmup,
        open,
        sat,
        updates,
        open_loop_cpu_s,
        cache: cache_delta(service.cache().stats(), cache_before),
    }
}

fn phase_note(name: &str, p: &PhaseResult, limit_ms: f64) -> String {
    let lat = stats::sorted(p.latency_ms.clone());
    let late = stats::sorted(p.lateness_ms.clone());
    let tail = stats::highest_tail(&lat)
        .map_or_else(|| "tail n/a".to_string(), |(l, v)| format!("{l} {v:.3} ms"));
    let lateness = match (stats::median(&late), stats::highest_tail(&late)) {
        (Some(p50), Some((l, v))) => {
            format!(", generator lateness p50 {p50:.3} ms, {l} {v:.3} ms")
        }
        _ => String::new(),
    };
    format!(
        "  {name}: sent {} answered {} failed {} in {:.2} s ({:.0}/s); latency p50 {:.3} ms, {tail}; \
         over {limit_ms} ms or failed {}{lateness}",
        p.sent,
        lat.len(),
        p.failed,
        p.elapsed_s,
        lat.len() as f64 / p.elapsed_s.max(1e-9),
        stats::median(&lat).unwrap_or(f64::NAN),
        p.missed(limit_ms),
    )
}

/// CPU seconds this process has used, all threads, user + system
/// (`utime` + `stime` of `/proc/self/stat`, in the kernel's fixed 1/100 s
/// ticks); 0 where `/proc` is not there.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name, which may itself
    // hold spaces: state is field 0 of the rest, utime 11, stime 12.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything both kinds of run check and count after the timed phases.
struct Checked {
    generator_limited: Vec<String>,
    lateness_ms: Vec<(String, [f64; 3])>,
    attempted: usize,
    failed: usize,
    wrong_answers: usize,
    /// Answers the oracle re-priced.
    oracle_samples: usize,
    problems: Vec<String>,
}

fn check(
    stack: &Stack,
    inputs: &Inputs,
    timed: &mut Timed,
    limit_ms: f64,
    notes: &mut Vec<String>,
) -> Checked {
    let mut problems = Vec::new();
    let mut generator_limited = Vec::new();
    let mut lateness_ms = Vec::new();
    for (name, p) in timed.phases() {
        notes.push(phase_note(&name, p, limit_ms));
        if p.malformed > 0 {
            problems.push(format!("{name}: {} malformed answers", p.malformed));
        }
        let late = stats::sorted(p.lateness_ms.clone());
        if !late.is_empty() {
            let at = |q: f64| stats::quantile(&late, q).unwrap_or(0.0);
            lateness_ms.push((name.clone(), [at(0.5), at(0.9), at(0.99)]));
        }
        if let Some(p50) = load::generator_limited(&late) {
            problems.push(format!(
                "{name}: generator-limited (lateness p50 {p50:.3} ms > {LATENESS_LIMIT_MS} ms)"
            ));
            generator_limited.push(name);
        }
    }
    let updates_attempted = timed.updates.applied + timed.updates.failed;
    if updates_attempted > 0 {
        notes.push(format!(
            "  updates: {} applied ({} increases, {} decreases), {} failed",
            timed.updates.applied,
            timed.updates.increase_ms.len(),
            timed.updates.decrease_ms.len(),
            timed.updates.failed
        ));
    }

    // Outside every timed phase and outside setup_s: the oracle.
    let started = Instant::now();
    let mut samples: Vec<Sampled> = Vec::new();
    for (_, p) in &mut timed.open {
        samples.append(&mut p.samples);
    }
    if let Some(sat) = &mut timed.sat {
        samples.append(&mut sat.samples);
    }
    let malformed: usize = timed.phases().iter().map(|(_, p)| p.malformed).sum();
    let mut wrong = malformed
        + verify::wrong_answers(
            &stack.graph,
            &inputs.updates,
            timed.updates.applied,
            &mut samples,
        );
    if !inputs.updates.is_empty() {
        wrong += verify::wrong_after_quiescing(
            &stack.service,
            &stack.graph,
            &inputs.updates,
            timed.updates.applied,
            &samples,
        );
    }
    notes.push(format!(
        "  oracle: {} sampled answers re-priced at their epochs{} in {:.2} s; wrong {wrong}",
        samples.len(),
        if inputs.updates.is_empty() {
            ""
        } else {
            ", then asked again after quiescing"
        },
        started.elapsed().as_secs_f64()
    ));
    if wrong > 0 {
        problems.push(format!("{wrong} wrong answers"));
    }
    let routes: usize = timed.phases().iter().map(|(_, p)| p.sent).sum();
    let route_failures: usize = timed.phases().iter().map(|(_, p)| p.failed).sum();
    Checked {
        generator_limited,
        lateness_ms,
        attempted: routes + updates_attempted,
        failed: route_failures + timed.updates.failed,
        wrong_answers: wrong,
        oracle_samples: samples.len(),
        problems,
    }
}

/// A tail percentile: under the reporting rule when `strict`, the plain
/// quantile (a diagnostic) otherwise.
fn tail_observation(sorted: &[f64], q: f64, strict: bool) -> Observation {
    Observation {
        value: if strict {
            stats::tail(sorted, q)
        } else {
            stats::quantile(sorted, q)
        },
        n: sorted.len(),
    }
}

fn median_observation(values: &[f64]) -> Observation {
    let sorted = stats::sorted(values.to_vec());
    Observation {
        value: stats::median(&sorted),
        n: sorted.len(),
    }
}

/// The end-to-end metrics from one drive. A metric whose phase the
/// workload does not have (`route_hi_p99_ms` without a second open-loop
/// phase, `sat_routes_per_s` without a saturation phase, an update latency
/// without updates) has no value and no samples.
fn end_to_end(
    setups: &[f64],
    timed: &Timed,
    checked: &Checked,
    limit_ms: f64,
    rss_mb: f64,
    strict_tails: bool,
) -> BTreeMap<&'static str, Observation> {
    let absent = Observation { value: None, n: 0 };
    let mut m = BTreeMap::new();
    // The fastest, not the median: contention only ever slows a set-up,
    // so the minimum is the steadiest estimate of what it costs.
    m.insert(
        "setup_s",
        Observation {
            value: setups.iter().copied().reduce(f64::min),
            n: setups.len(),
        },
    );
    let sorted_latency = |k: usize| {
        timed
            .open
            .get(k)
            .map(|(_, p)| stats::sorted(p.latency_ms.clone()))
    };
    let lo = sorted_latency(0).unwrap_or_default();
    m.insert("route_p50_ms", median_observation(&lo));
    m.insert("route_p99_ms", tail_observation(&lo, 0.99, strict_tails));
    m.insert(
        "route_hi_p99_ms",
        sorted_latency(1).map_or(absent.clone(), |hi| {
            tail_observation(&hi, 0.99, strict_tails)
        }),
    );
    m.insert(
        "slo_miss_frac",
        timed.open.last().map_or(absent.clone(), |(_, highest)| {
            Observation::of(
                highest.missed(limit_ms) as f64 / highest.sent.max(1) as f64,
                highest.sent,
            )
        }),
    );
    m.insert(
        "fail_frac",
        Observation::of(
            checked.failed as f64 / checked.attempted.max(1) as f64,
            checked.attempted,
        ),
    );
    let phases = timed.phases();
    let answered: usize = phases.iter().map(|(_, p)| p.latency_ms.len()).sum();
    let degraded: usize = phases.iter().map(|(_, p)| p.degraded).sum();
    m.insert(
        "degraded_frac",
        Observation::of(degraded as f64 / answered.max(1) as f64, answered),
    );
    m.insert(
        "sat_routes_per_s",
        timed.sat.as_ref().map_or(absent, |sat| {
            Observation::of(
                sat.latency_ms.len() as f64 / sat.elapsed_s.max(1e-9),
                sat.latency_ms.len(),
            )
        }),
    );
    let open_routes: usize = timed.open.iter().map(|(_, p)| p.latency_ms.len()).sum();
    m.insert(
        "cpu_ms_per_route",
        Observation {
            value: (open_routes > 0).then(|| 1e3 * timed.open_loop_cpu_s / open_routes as f64),
            n: open_routes,
        },
    );
    m.insert(
        "update_inc_p50_ms",
        median_observation(&timed.updates.increase_ms),
    );
    m.insert(
        "update_dec_p50_ms",
        median_observation(&timed.updates.decrease_ms),
    );
    let units = &timed.warmup.computed_cost_units;
    m.insert(
        "cost_units_per_route",
        Observation {
            value: (!units.is_empty()).then(|| stats::mean(units)),
            n: units.len(),
        },
    );
    m.insert("peak_rss_mb", Observation::of(rss_mb, 1));
    m.insert(
        "wrong_answers",
        Observation::of(checked.wrong_answers as f64, checked.oracle_samples),
    );
    m
}

fn sizes_note(w: &Workload, stack: &Stack, inputs: &Inputs) -> Vec<String> {
    let mut phases: Vec<String> = w
        .open
        .iter()
        .zip(&inputs.seconds.open)
        .map(|(p, secs)| format!("open loop {:.0}/s x {secs:.1} s", p.rate))
        .collect();
    if inputs.seconds.saturation > 0.0 {
        phases.push(format!(
            "saturation 2 clients x {:.1} s (first {:.1} s not counted)",
            inputs.seconds.saturation, inputs.seconds.saturation_ramp
        ));
    }
    vec![
        format!(
            "  network {}: {} nodes, {} edges, {} regions; hierarchy {} arcs; buffer pool {} blocks vs S {} blocks",
            w.network,
            stack.graph.node_count(),
            stack.graph.edge_count(),
            stack.regions,
            stack.hierarchy_arcs,
            stack.pool_blocks,
            stack.graph_blocks
        ),
        format!(
            "  service: A* v5 + landmarks + hierarchy, cost-based joins, {} workers, {} shards, batch {}, queue {}, cache {}",
            stack::WORKERS,
            stack::SHARDS,
            stack::BATCH_MAX,
            stack::QUEUE_CAPACITY,
            stack::CACHE_CAPACITY
        ),
        format!(
            "  phases: {}; limit {} ms; {} scripted updates; local pool {}",
            phases.join(", "),
            w.limit_ms,
            inputs.updates.len(),
            inputs.local_pool.len()
        ),
        format!("  inputs digest {:016x}", inputs.digest),
    ]
}

/// The untraced run: the end-to-end metrics.
pub fn untraced(opts: &Options) -> Report {
    let w = &opts.workload;
    let mut notes = Vec::new();
    // Half of the set-ups before the run and half after it: the sandbox's
    // speed for this memory-bound work wanders by the second, and two
    // windows 20 s apart seldom both catch it slow.
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut stack = stack::build(w.target_nodes, None);
    setups.push(stack.times.total_s);
    for _ in 1..w.setup_reps.div_ceil(2) {
        // One stack alive at a time: peak memory is one set-up's.
        drop(stack);
        stack = stack::build(w.target_nodes, None);
        setups.push(stack.times.total_s);
    }
    let inputs = inputs::generate(w, &stack.graph, opts.seed, opts.seconds);
    notes.extend(sizes_note(w, &stack, &inputs));

    let mut timed = drive(&stack.service, w, &stack.graph, &inputs, opts.seed);
    let rss_mb = peak_rss_mb();
    while setups.len() < w.setup_reps {
        setups.push(stack::build(w.target_nodes, None).times.total_s);
    }
    let checked = check(&stack, &inputs, &mut timed, w.limit_ms, &mut notes);
    let served = timed.cache.hits + timed.cache.misses;
    notes.push(format!(
        "  cache over the timed phases: hit rate {:.4} ({} of {} lookups), {} evictions, {} invalidations",
        timed.cache.hits as f64 / served.max(1) as f64,
        timed.cache.hits,
        served,
        timed.cache.evictions,
        timed.cache.invalidations
    ));
    let metrics = end_to_end(&setups, &timed, &checked, w.limit_ms, rss_mb, true);
    Report {
        digest: inputs.digest,
        generator_limited: checked.generator_limited,
        lateness_ms: checked.lateness_ms,
        attempted: checked.attempted,
        failed: checked.failed,
        correct: checked.problems.is_empty(),
        problems: checked.problems,
        metrics,
        notes,
    }
}

/// Two fresh services over the same database, one observed and one not,
/// each warmed alike and saturated alike: the difference is what tracing
/// costs. The unobserved twin then serves the live hand-off probes.
struct Twins {
    untraced_per_s: f64,
    traced_per_s: f64,
    events: u64,
    dropped: u64,
    routes: usize,
}

fn twins(
    rec: &mut Recorder,
    db: &Database,
    graph: &Graph,
    inputs: &Inputs,
    seed: u64,
    smoke: bool,
    measured: &mut probe::Measured,
) -> Twins {
    let (seconds, ramp) = if smoke { (0.6, 0.2) } else { (3.0, 1.2) };
    let idle = AtomicU64::new(0);
    let checker = Checker {
        graph,
        updates_started: &idle,
    };
    let warm = &inputs.warmup[..inputs.warmup.len().min(64)];
    let saturate = |service: &RouteService| {
        load::sequential(service, warm, &checker, 0, seed);
        load::closed_loop(
            service,
            &inputs.saturation,
            seconds,
            ramp,
            &checker,
            0,
            seed,
        )
    };

    let plain = RouteService::new(db.clone(), stack::serve_config());
    let registry: SharedRegistry = MetricsRegistry::shared();
    let ring = RingSink::shared(RING_CAPACITY);
    let observed = RouteService::with_observability(
        db.clone(),
        stack::serve_config(),
        Some(registry),
        Some(ring.clone()),
    );
    // The first saturation after a quiet spell runs slow whichever twin
    // it is (see `load::closed_loop`): one uncounted pass settles that.
    saturate(&plain);
    ring.clear();
    let traced = saturate(&observed);
    let untraced = saturate(&plain);
    let routes = traced.sent + traced.uncounted + warm.len();
    drop(observed);

    // Live probes of the hand-off, one client, on the unobserved twin:
    // fresh uniform pairs miss, asking again hits.
    let mut rng = atis_graph::SplitMix64::new(seed ^ 0x6c69_7665);
    let nodes = graph.node_count() as u64;
    let mut overhead = Vec::new();
    let snapshot = plain.shard_snapshot();
    for i in 0..64u64 {
        let s = atis_graph::NodeId(rng.next_below(nodes) as u32);
        let d = atis_graph::NodeId(rng.next_below(nodes) as u32);
        if s == d {
            continue;
        }
        let rtt = rec.begin("serve.route_miss_rtt", i);
        let ticket = rec.call("serve.submit_us", i, || plain.submit(s, d));
        let answer = ticket.and_then(|t| t.wait());
        rec.end(rtt);
        let computed = matches!(&answer, Ok(a) if a.outcome == RouteOutcome::Computed);
        let again = rec.begin("serve.hit_route_us", i);
        let hit = plain.route(s, d);
        rec.end(again);
        let was_hit = matches!(&hit, Ok(a) if a.outcome == RouteOutcome::CacheHit);
        let t = Instant::now();
        let direct = snapshot.db.run(PRIMARY, s, d);
        let run_ns = t.elapsed().as_nanos() as f64;
        if computed && was_hit && direct.is_ok() {
            overhead.push(rec.spans[rtt].duration_ns() as f64 - run_ns);
        } else {
            // Keep only clean samples behind the medians.
            rec.spans[rtt].name = "serve.route_miss_rtt.discarded";
            rec.spans[again].name = "serve.hit_route_us.discarded";
        }
    }
    let overhead = stats::sorted(overhead);
    measured.insert(
        "serve.miss_overhead_us",
        (
            stats::median(&overhead).unwrap_or(0.0) / 1e3,
            overhead.len(),
        ),
    );

    Twins {
        untraced_per_s: untraced.latency_ms.len() as f64 / untraced.elapsed_s.max(1e-9),
        traced_per_s: traced.latency_ms.len() as f64 / traced.elapsed_s.max(1e-9),
        events: ring.len() as u64 + ring.dropped(),
        dropped: ring.dropped(),
        routes,
    }
}

fn reconcile_notes(reconciled: &[probe::Reconciled], notes: &mut Vec<String>) {
    for r in reconciled {
        if r.samples == 0 {
            continue;
        }
        let scale = if r.root_median_ns >= 1e6 { 1e6 } else { 1e3 };
        let unit = if scale == 1e6 { "ms" } else { "us" };
        let children: f64 = r.children.iter().map(|(_, v)| v).sum();
        notes.push(format!(
            "  {} (n={}): root {:.3} {unit} = children {:.3} + unattributed {:.3}",
            r.root,
            r.samples,
            r.root_median_ns / scale,
            children / scale,
            r.unattributed_ns / scale
        ));
        for (name, self_ns) in &r.children {
            notes.push(format!(
                "      {name:<28} self {:>12.3} {unit} ({:.1} % of root)",
                self_ns / scale,
                100.0 * self_ns / r.root_median_ns.max(1.0)
            ));
        }
        notes.push(format!(
            "      whole call {}: {:.3} {unit}; re-enactment is {:+.1} % of it",
            r.whole_call,
            r.whole_median_ns / scale,
            100.0 * (r.root_median_ns - r.whole_median_ns) / r.whole_median_ns.max(1.0)
        ));
    }
}

/// The traced run: the per-layer metrics.
pub fn traced(opts: &Options, trace_path: &std::path::Path) -> Report {
    let w = &opts.workload;
    let mut notes = Vec::new();
    let registry: SharedRegistry = MetricsRegistry::shared();
    let ring = RingSink::shared(RING_CAPACITY);
    let sink: Arc<RingSink> = ring.clone();
    let stack = stack::build(w.target_nodes, Some((registry.clone(), sink)));
    let inputs = inputs::generate(w, &stack.graph, opts.seed, opts.seconds);
    notes.extend(sizes_note(w, &stack, &inputs));

    // Layer probes on the workload's own database, before any update.
    let counts = if opts.smoke {
        ProbeCounts::SMOKE
    } else if w.target_nodes > 20_000 {
        ProbeCounts::LARGE
    } else {
        ProbeCounts::FULL
    };
    let db = stack.service.shard_snapshot().db;
    let probe_script = inputs::probe_script(
        w,
        &stack.graph,
        &inputs,
        opts.seed,
        counts.increases,
        counts.decreases,
    );
    let mut rec = Recorder::new();
    let stream: Vec<_> = inputs
        .open
        .iter()
        .flat_map(|p| p.pairs.iter().copied())
        .collect();
    let mut measured = probe::layers(
        &mut rec,
        &db,
        &stream,
        &inputs.local_pool,
        &probe_script,
        counts,
        opts.seed,
    );
    let twin = twins(
        &mut rec,
        &db,
        &stack.graph,
        &inputs,
        opts.seed,
        opts.smoke,
        &mut measured,
    );
    drop(db);
    probe::timed_medians(&rec, &mut measured);
    notes.push("  layer probes (self time = span minus the child spans issued inside it):".into());
    reconcile_notes(&probe::reconciliation(&rec), &mut notes);

    // The workload again, observed: outcome counters and queueing stamps.
    let mut timed = drive(&stack.service, w, &stack.graph, &inputs, opts.seed);
    let checked = check(&stack, &inputs, &mut timed, w.limit_ms, &mut notes);

    let mut m: BTreeMap<&'static str, Observation> = measured
        .iter()
        .map(|(&k, &(v, n))| (k, Observation::of(v, n)))
        .collect();
    let t = &stack.times;
    for (key, value) in [
        ("graph.generate_ms", t.generate_ms),
        ("graph.partition_ms", t.partition_ms),
        ("preprocess.build_ms", t.landmarks_ms),
        ("hierarchy.build_ms", t.hierarchy_ms),
        ("storage.open_ms", t.open_ms),
        ("hierarchy.arcs", stack.hierarchy_arcs as f64),
    ] {
        m.insert(key, Observation::of(value, 1));
    }
    let lookups = timed.cache.hits + timed.cache.misses;
    let phases: Vec<&PhaseResult> = timed
        .open
        .iter()
        .map(|(_, p)| p)
        .chain(timed.sat.as_ref())
        .collect();
    let sent: usize = phases.iter().map(|p| p.sent).sum();
    let shed: usize = phases.iter().map(|p| p.shed).sum();
    let stale: usize = phases.iter().map(|p| p.stale).sum();
    m.insert(
        "serve.cache_hit_rate",
        Observation::of(
            timed.cache.hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        ),
    );
    m.insert(
        "serve.cache_evictions",
        Observation::of(timed.cache.evictions as f64, lookups as usize),
    );
    m.insert(
        "serve.cache_invalidations_per_update",
        Observation::of(
            timed.cache.invalidations as f64 / timed.updates.applied.max(1) as f64,
            timed.updates.applied,
        ),
    );
    m.insert(
        "serve.shed_frac",
        Observation::of(shed as f64 / sent.max(1) as f64, sent),
    );
    m.insert(
        "serve.stale_frac",
        Observation::of(stale as f64 / sent.max(1) as f64, sent),
    );
    let batches = registry.histogram("serve_batch_size");
    m.insert(
        "serve.batched_runs",
        Observation::of(batches.as_ref().map_or(0.0, |h| h.count as f64), sent),
    );
    m.insert(
        "serve.batch_size_mean",
        Observation::of(
            batches.as_ref().map_or(0.0, |h| h.mean()),
            batches.as_ref().map_or(0, |h| h.count as usize),
        ),
    );
    let pooled = |pick: fn(&PhaseResult) -> &Vec<f64>| {
        stats::sorted(
            phases
                .iter()
                .flat_map(|p| pick(p).iter().copied())
                .collect(),
        )
    };
    let queue_wait = pooled(|p| &p.queue_wait_us);
    let service = pooled(|p| &p.service_us);
    let lateness = pooled(|p| &p.lateness_ms);
    for (key, sample, q) in [
        ("serve.queue_wait_p50_us", &queue_wait, 0.5),
        ("serve.queue_wait_p99_us", &queue_wait, 0.99),
        ("serve.service_p50_us", &service, 0.5),
        ("serve.service_p99_us", &service, 0.99),
        ("serve.lateness_p99_ms", &lateness, 0.99),
    ] {
        // Diagnostics: given even where fewer than ten samples lie beyond.
        m.insert(
            key,
            Observation::of(stats::quantile(sample, q).unwrap_or(0.0), sample.len()),
        );
    }
    m.insert(
        "obs.trace_overhead_frac",
        Observation::of(
            1.0 - twin.traced_per_s / twin.untraced_per_s.max(1e-9),
            twin.routes,
        ),
    );
    m.insert(
        "obs.events_per_route",
        Observation::of(twin.events as f64 / twin.routes.max(1) as f64, twin.routes),
    );
    m.insert(
        "obs.sink_dropped",
        Observation::of(twin.dropped as f64, twin.routes),
    );
    notes.push(format!(
        "  tracing overhead: saturation {:.0}/s untraced vs {:.0}/s traced; {} events for {} routes, {} dropped by the ring",
        twin.untraced_per_s, twin.traced_per_s, twin.events, twin.routes, twin.dropped
    ));
    notes.push(format!(
        "  observed re-run: {} events in the service's ring, {} dropped",
        ring.len(),
        ring.dropped()
    ));

    // The end-to-end metrics of this observed re-run, for the driver's
    // serve-layer view; tails are plain quantiles here (diagnostics).
    let rerun = end_to_end(&[t.total_s], &timed, &checked, w.limit_ms, f64::NAN, false);
    for (name, source) in crate::contract::DEMOTED {
        if let Some(obs) = rerun.get(source) {
            m.insert(name, obs.clone());
        }
    }

    let mut problems = checked.problems;
    match rec.write_jsonl(trace_path) {
        Ok(()) => notes.push(format!(
            "  {} spans written to {}",
            rec.spans.len(),
            trace_path.display()
        )),
        Err(e) => problems.push(format!("cannot write {}: {e}", trace_path.display())),
    }
    Report {
        digest: inputs.digest,
        generator_limited: checked.generator_limited,
        lateness_ms: checked.lateness_ms,
        attempted: checked.attempted,
        failed: checked.failed,
        correct: problems.is_empty(),
        problems,
        metrics: m,
        notes,
    }
}

//! Golden identity test: every observable of every database-resident
//! run, pinned.
//!
//! The body dumps one text row per run — label, `iterations`, `expanded`,
//! `reopened`, `frontier_peak`, `join_strategy`, all six `IoStats`
//! counters, the `StepIo`, an expansion-order digest, a path
//! digest with `cost.to_bits()`, or the error text (which for an injected
//! fault names the op number *and the block*, i.e. pins the physical op
//! sequence) — plus one row per run for the whole
//! `RunStarted`/`Iteration`/`Fault`/`RunFinished` event stream, over six
//! network/engine configurations × every algorithm configuration × two
//! budgets × three fault positions. The rows fold to one FNV-1a digest
//! per (configuration, family).
//!
//! The constants were generated by running this body at the commit
//! *before* the four hand-copied best-first loops became one driver, so
//! a green run says: the one loop charges, orders, reports and fails
//! exactly as the four did. Two groups are digested on their own because
//! the merge changes them on purpose (and nothing else):
//!
//! * [`RELATION_STEPS`] — the `StepIo` of relation-frontier and
//!   duplicate-policy runs (the old loops reported everything as
//!   `bookkeeping`; the driver attributes it, same sum);
//! * [`BLIND_EVENTS`] — the event streams of the `Allow` / `Eliminate`
//!   duplicate policies (the old loop attached no observer).
//!
//! `A* (version 5)` runs are a family of their own too, `v5`: every row
//! a v5 run produces — result, budget, fault and event-stream rows —
//! and each configuration's `metrics` totals row, which sums v5's
//! counters with everyone else's. v5 reads the overlay, not the base
//! relations, so a change to what the overlay holds moves the `v5`
//! constants and, this way, nothing else. (The split itself re-folded
//! the rows of the families v5 used to sit in — `solo`, `budgets`,
//! `faults`, `events` — at the commit that made it, product code
//! untouched; the dump's rows did not change.) That is how the `v5`
//! constants of `islands12`, `metro3x2` and `minneapolis` came to move
//! once, on purpose, when the contraction order became one top-down
//! dissection: 103 of the dump's 5 632 rows, every path digest and
//! `cost.to_bits()` among them unchanged, and no other constant.
//!
//! The multi-target Dijkstra sweep had a `sweep` family of its own until
//! the sweep was deleted. Its event-stream rows sat at the end of each
//! configuration's `events` group, and the `metrics` row summed its
//! runs. So that deletion removed 154 rows (the six `sweep` groups and
//! 48 trailing `events` rows) and changed the six `metrics` rows. Every
//! other row stayed byte-identical. The `events` and `v5` constants
//! moved then, and no other constant did.
//!
//! Figure 1's iterative algorithm had a loop of its own until it became
//! a frontier of the one driver, settling every current node per
//! iteration. Every unbudgeted and every faulted Iterative row stayed
//! byte-identical then: charges, ties, events and op numbers. 24 rows
//! moved, all budgeted Iterative runs and the `metrics` rows that sum
//! them, because the old loop checked its budget only before a round it
//! would run, and the driver checks at its loop top and once more after
//! the last selection. So under `iter<=7` an Iterative run now runs its
//! eighth round before it fails: one more event in 17 `events` rows. On
//! `islands12`, 0->8 and 0->10 under `cost<=3` returned `Ok` after
//! charging 3.09 units and now fail: two `budgets` rows and two `events`
//! rows. The `metrics` rows of `grid10-pool` and `metro3x2` moved with
//! their pools' hit counts, and `islands12`'s with the two runs that now
//! fail. The `events` constants of all six configurations,
//! `islands12/budgets` and the `v5` constants of `grid10-pool`,
//! `islands12` and `metro3x2` moved then, and no other constant did.
//!
//! A\* version 5 ran two lazy-deletion heaps until its search became
//! one sweep up the elimination tree, depth by depth, with the best
//! meeting cost lowered whenever a label is written. The `v5`
//! constants of all six configurations moved then, and no other
//! constant did: 227 of the dump's 5 478 rows, all of them `v5` rows
//! (101 result rows, 120 event streams and the six `metrics` rows that
//! sum them). What moved is the settle order and `frontier_peak` (now
//! the labels reached above the sweep's depth, not heap entries), the
//! event streams, and the settle and read counts of five trips: one
//! settle fewer on `grid10` 4->12, `islands12` 0->8 and 2->2 and `skewed9`
//! 40->40, eight more on `skewed9` 0->80 (7 to 15). Three budgeted rows
//! now fail: `metro3x2` 17->238 and `minneapolis` 254->129 under
//! `cost<=3`, because the unpacking reads are now held to the budget,
//! and `skewed9` 0->80 under `iter<=7`. Every path digest and
//! `cost.to_bits()` stayed.
//!
//! A\* version 5 then came to fetch each overlay list once: a shared
//! ancestor's list once for both searches, a middle's list once for
//! both halves of its shortcut, and a real edge never. The `v5`
//! constants of all six configurations moved, and no other constant
//! did: 173 of the dump's 5 478 rows, all of them `v5` rows (80 result
//! rows, 84 event streams, the six `metrics` rows, and three error rows).
//! With every read and cost-unit field masked (`block_reads` in the
//! result and `metrics` rows, `reads` and `cost_units` in the events),
//! the dump equals the one before but for nine rows, all under
//! `cost<=3`, where fewer reads reach the budget later: three runs that
//! had failed now answer, with their unbudgeted runs' paths (`metro3x2`
//! 17->238, `minneapolis` 254->129 and 701->905); their three event
//! streams and `metro3x2` 130->397's, which still fails one settle
//! later; and the `metrics` rows of `metro3x2` and `minneapolis`. Every
//! path digest and `cost.to_bits()` stayed.
//!
//! On a mismatch the test prints the rows of every offending group; the
//! full dump is always written to `$CARGO_TARGET_TMPDIR/driver_identity.dump`
//! so two commits can be compared with `diff`.

use atis::algorithms::duplicates::run_with_duplicate_policy;
use atis::algorithms::{
    AStarVersion, Algorithm, AlgorithmError, Budgets, Database, DuplicatePolicy, Estimator,
    FrontierKind, Hierarchy, HierarchyConfig, LandmarkTables, PreprocessConfig, RunTrace,
};
use atis::graph::graph::graph_from_arcs;
use atis::graph::{Metro, MetroQuery, MetroSpec, NamedPair};
use atis::obs::{MetricsRegistry, RingSink};
use atis::storage::{FaultPlan, IoStats, JoinPolicy, StorageProfile};
use atis::{CostModel, Graph, Grid, Minneapolis, NodeId, QueryKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `(configuration, family)` → FNV-1a digest of the group's rows.
const GOLDEN: [(&str, &str, u64); 36] = [
    ("grid10", "solo", 0x3cfb_e8ad_8f43_6fb2),
    ("grid10", "duplicates", 0x06a3_2905_d505_5c85),
    ("grid10", "budgets", 0x4f19_8e28_197b_5357),
    ("grid10", "faults", 0xb6cc_d479_7ae5_b2cb),
    ("grid10", "events", 0xf2c8_1233_9af8_eed2),
    ("grid10", "v5", 0xdbd7_5df5_67bd_905c),
    ("grid10-pool", "solo", 0x558d_9114_0325_ad78),
    ("grid10-pool", "duplicates", 0x2758_0d46_7be2_e91e),
    ("grid10-pool", "budgets", 0x9c47_6e2d_fad1_5124),
    ("grid10-pool", "faults", 0x7214_4f67_82a9_7c0b),
    ("grid10-pool", "events", 0x4245_676b_257a_6236),
    ("grid10-pool", "v5", 0x2e12_382c_5d29_1c8f),
    ("skewed9", "solo", 0x610b_0534_b2c3_309c),
    ("skewed9", "duplicates", 0xaf3a_9499_5e7e_2b2b),
    ("skewed9", "budgets", 0x9969_e1fb_1519_57c2),
    ("skewed9", "faults", 0x4308_506b_c8bc_a854),
    ("skewed9", "events", 0x058b_671c_0699_4bfe),
    ("skewed9", "v5", 0xfe2a_f5de_f887_96b1),
    ("minneapolis", "solo", 0xa867_e3d9_407a_3375),
    ("minneapolis", "duplicates", 0x110c_5a40_812e_b898),
    ("minneapolis", "budgets", 0x4945_62b7_42f1_bfb5),
    ("minneapolis", "faults", 0x7d81_1b1b_95d3_d18f),
    ("minneapolis", "events", 0xc268_67fd_86b8_51a3),
    ("minneapolis", "v5", 0xeab8_bbe4_f200_b653),
    ("metro3x2", "solo", 0x4669_1383_4363_740e),
    ("metro3x2", "duplicates", 0x5bcd_2e1d_b1c2_95e6),
    ("metro3x2", "budgets", 0xd413_506c_f4d5_4ded),
    ("metro3x2", "faults", 0x4812_a10e_10c3_ef42),
    ("metro3x2", "events", 0x6655_b639_4677_a760),
    ("metro3x2", "v5", 0x6e83_b5cc_1a1a_fc21),
    ("islands12", "solo", 0x672a_f312_f747_506d),
    ("islands12", "duplicates", 0xbad1_6f71_d769_8cd9),
    ("islands12", "budgets", 0xa808_e477_5ef5_992a),
    ("islands12", "faults", 0xfd39_bdef_bb0d_b1de),
    ("islands12", "events", 0xd05c_3337_6d6d_e6c5),
    ("islands12", "v5", 0x5357_2818_61e5_3547),
];

/// Step breakdowns of every relation-frontier / duplicate-policy run,
/// all configurations.
const RELATION_STEPS: u64 = 0xb8a2_e3e3_d19e_2b3b;

/// Event streams of every `Allow` / `Eliminate` run, all configurations.
const BLIND_EVENTS: u64 = 0x238d_e0e6_6785_0386;

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_of<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut d = FNV_OFFSET;
    for item in items {
        fnv1a(&mut d, format!("{item:?};").as_bytes());
    }
    d
}

fn io_text(io: &IoStats) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}",
        io.block_reads,
        io.block_writes,
        io.tuple_updates,
        io.relations_created,
        io.relations_deleted,
        io.index_adjustments
    )
}

fn steps_text(t: &RunTrace) -> String {
    format!(
        "init={} select={} join={} update={} bookkeeping={}",
        io_text(&t.steps.init),
        io_text(&t.steps.select),
        io_text(&t.steps.join),
        io_text(&t.steps.update),
        io_text(&t.steps.bookkeeping)
    )
}

/// Everything a trace reports except `wall` and (separately) `steps`.
fn trace_text(t: &RunTrace) -> String {
    let path = match &t.path {
        Some(p) => format!(
            "{}@{:016x}#{:016x}",
            p.nodes.len(),
            p.cost.to_bits(),
            digest_of(&p.nodes)
        ),
        None => "none".to_string(),
    };
    assert_eq!(
        t.steps.total(),
        t.io,
        "{}: steps must sum to io",
        t.algorithm
    );
    format!(
        "label={:?} it={} exp={} reopen={} peak={} join={:?} io={} order={}#{:016x} path={}",
        t.algorithm,
        t.iterations,
        t.expanded,
        t.reopened,
        t.frontier_peak,
        t.join_strategy,
        io_text(&t.io),
        t.expansion_order.len(),
        digest_of(&t.expansion_order),
        path
    )
}

/// One algorithm configuration: the 15 `Algorithm` values plus the six
/// duplicate-policy × estimator combinations.
#[derive(Clone, Copy)]
enum Subject {
    Alg(Algorithm),
    Dup(DuplicatePolicy, Estimator),
}

impl Subject {
    fn all() -> Vec<Subject> {
        let mut all = vec![
            Subject::Alg(Algorithm::Iterative),
            Subject::Alg(Algorithm::Dijkstra),
        ];
        all.extend(AStarVersion::ALL_WITH_HIERARCHY.map(|v| Subject::Alg(Algorithm::AStar(v))));
        for frontier in [
            FrontierKind::StatusAttribute,
            FrontierKind::SeparateRelation,
        ] {
            for estimator in [
                Estimator::Zero,
                Estimator::Euclidean,
                Estimator::Manhattan,
                Estimator::WeightedManhattan { weight: 1.5 },
            ] {
                all.push(Subject::Alg(Algorithm::Custom {
                    frontier,
                    estimator,
                }));
            }
        }
        for policy in DuplicatePolicy::ALL {
            for estimator in [Estimator::Euclidean, Estimator::Manhattan] {
                all.push(Subject::Dup(policy, estimator));
            }
        }
        all
    }

    fn name(&self) -> String {
        match self {
            Subject::Alg(a) => a.label(),
            Subject::Dup(p, e) => format!("dup-{}-{}", p.label(), e.label()),
        }
    }

    /// Runs over the overlay: all their rows go to the `v5` family.
    fn is_v5(&self) -> bool {
        matches!(self, Subject::Alg(Algorithm::AStar(AStarVersion::V5)))
    }

    fn is_duplicates(&self) -> bool {
        matches!(self, Subject::Dup(..))
    }

    /// Runs whose frontier is a relation of its own: their `steps` go to
    /// [`RELATION_STEPS`].
    fn relation_frontier(&self) -> bool {
        match self {
            Subject::Dup(..) => true,
            Subject::Alg(Algorithm::AStar(AStarVersion::V1)) => true,
            Subject::Alg(Algorithm::Custom { frontier, .. }) => {
                *frontier == FrontierKind::SeparateRelation
            }
            Subject::Alg(_) => false,
        }
    }

    /// Runs on the blind-append frontier: their events go to
    /// [`BLIND_EVENTS`].
    fn blind(&self) -> bool {
        matches!(
            self,
            Subject::Dup(DuplicatePolicy::Allow | DuplicatePolicy::Eliminate, _)
        )
    }

    fn run(&self, db: &Database, s: NodeId, d: NodeId) -> Result<RunTrace, AlgorithmError> {
        match *self {
            Subject::Alg(a) => db.run(a, s, d),
            Subject::Dup(p, e) => run_with_duplicate_policy(db, s, d, e, p),
        }
    }
}

struct Config {
    name: &'static str,
    db: Database,
    ring: Arc<RingSink>,
    metrics: Arc<MetricsRegistry>,
    pairs: Vec<(NodeId, NodeId)>,
}

impl Config {
    fn new(
        name: &'static str,
        graph: &Graph,
        open: impl FnOnce(&Graph) -> Database,
        pairs: Vec<(NodeId, NodeId)>,
    ) -> Config {
        let ring = RingSink::shared(1 << 20);
        let metrics = MetricsRegistry::shared();
        let db = open(graph)
            .with_landmarks(LandmarkTables::build(graph, PreprocessConfig::grid_default()).unwrap())
            .with_hierarchy(Hierarchy::build(graph, HierarchyConfig::paper()).unwrap())
            .with_trace_sink(ring.clone())
            .with_metrics(metrics.clone());
        Config {
            name,
            db,
            ring,
            metrics,
            pairs,
        }
    }
}

fn configs() -> Vec<Config> {
    let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let grid_pairs = vec![
        grid.query_pair(QueryKind::Diagonal),
        grid.query_pair(QueryKind::Horizontal),
        grid.query_pair(QueryKind::Random),
    ];

    let skewed = Grid::new(9, CostModel::Skewed, 0).unwrap();
    let (sk_s, sk_d) = skewed.query_pair(QueryKind::Diagonal);
    let mid = skewed.node_at(4, 4);

    let mpls = Minneapolis::paper();
    let mpls_pairs: Vec<_> = NamedPair::ALL.map(|p| mpls.query_pair(p)).to_vec();

    let metro = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
    let n = metro.graph().node_count();
    let metro_pairs = vec![
        metro.query_pair(MetroQuery::Diagonal),
        metro.query_pair(MetroQuery::IntraCity),
        metro.query_pair(MetroQuery::AdjacentCity),
    ];

    // Two islands: 0..=8 (with edges cheaper than the coordinate
    // distance, so the geometric estimators overestimate and closed
    // nodes reopen) and 9..=11, unreachable from the first.
    let islands = graph_from_arcs(
        12,
        &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 3.5),
            (2, 3, 1.0),
            (0, 4, 1.5),
            (4, 3, 0.25),
            (3, 5, 2.0),
            (4, 6, 0.5),
            (6, 5, 0.25),
            (5, 7, 1.0),
            (6, 8, 4.0),
            (7, 8, 1.0),
            (8, 0, 1.0),
            (3, 1, 0.25),
            (9, 10, 1.0),
            (10, 11, 1.0),
            (11, 9, 1.0),
            (9, 0, 1.0),
        ],
    )
    .unwrap();

    vec![
        Config::new(
            "grid10",
            grid.graph(),
            |g| Database::open(g).unwrap(),
            grid_pairs.clone(),
        ),
        Config::new(
            "grid10-pool",
            grid.graph(),
            |g| {
                let pool_only = StorageProfile {
                    buffer_blocks: Some(24),
                    ..StorageProfile::paper()
                };
                Database::open_with_profile(g, pool_only)
                    .unwrap()
                    .with_join_policy(JoinPolicy::CostBased)
            },
            grid_pairs,
        ),
        Config::new(
            "skewed9",
            skewed.graph(),
            |g| Database::open(g).unwrap(),
            vec![(sk_s, sk_d), (mid, mid), (sk_d, mid)],
        ),
        Config::new(
            "minneapolis",
            mpls.graph(),
            |g| Database::open(g).unwrap(),
            mpls_pairs,
        ),
        Config::new(
            "metro3x2",
            metro.graph(),
            |g| {
                Database::open_with_profile(g, StorageProfile::for_nodes(n))
                    .unwrap()
                    .with_join_policy(JoinPolicy::CostBased)
            },
            metro_pairs,
        ),
        Config::new(
            "islands12",
            &islands,
            |g| Database::open(g).unwrap(),
            vec![
                (NodeId(0), NodeId(8)),
                (NodeId(0), NodeId(10)),
                (NodeId(9), NodeId(5)),
                (NodeId(2), NodeId(2)),
            ],
        ),
    ]
}

/// The dump: `(configuration, family)` → rows, in run order.
#[derive(Default)]
struct Dump {
    groups: BTreeMap<(String, String), Vec<String>>,
}

impl Dump {
    fn push(&mut self, config: &str, family: &str, row: String) {
        self.groups
            .entry((config.to_string(), family.to_string()))
            .or_default()
            .push(row);
    }

    /// Records one finished run: its result row under `family`, its
    /// event stream under `events` — with the two groups the driver
    /// merge changes on purpose, and everything a v5 run reports, split
    /// off into their own families.
    fn record(
        &mut self,
        cfg: &Config,
        family: &str,
        what: &str,
        subject: &Subject,
        result: &Result<RunTrace, AlgorithmError>,
    ) {
        let (family, events_family) = if subject.is_v5() {
            ("v5", "v5")
        } else {
            (family, "events")
        };
        match result {
            // `[0]` is the trace's index in the rows' format, kept so the
            // golden digests still read the same rows.
            Ok(t) => {
                let steps = steps_text(t);
                let row = trace_text(t);
                if subject.relation_frontier() {
                    self.push(cfg.name, family, format!("{what} [0] {row}"));
                    self.push(
                        "*",
                        "relation-steps",
                        format!("{} {what} {steps}", cfg.name),
                    );
                } else {
                    self.push(cfg.name, family, format!("{what} [0] {row} steps: {steps}"));
                }
            }
            Err(e) => self.push(cfg.name, family, format!("{what} error: {e}")),
        }
        let events = cfg.ring.events();
        assert_eq!(cfg.ring.dropped(), 0, "ring overflow in {what}");
        cfg.ring.clear();
        let mut d = FNV_OFFSET;
        for e in &events {
            fnv1a(&mut d, e.to_json().as_bytes());
            fnv1a(&mut d, b"\n");
        }
        let row = format!("{what} events={} #{d:016x}", events.len());
        if subject.blind() {
            self.push("*", "blind-events", format!("{} {row}", cfg.name));
        } else {
            self.push(cfg.name, events_family, row);
        }
    }
}

fn dump_config(cfg: &Config, dump: &mut Dump) {
    let subjects = Subject::all();
    for &(s, d) in &cfg.pairs {
        for subject in &subjects {
            let what = format!("{} {}->{}", subject.name(), s.0, d.0);
            let family = if subject.is_duplicates() {
                "duplicates"
            } else {
                "solo"
            };
            let result = subject.run(&cfg.db, s, d);
            dump.record(cfg, family, &what, subject, &result);

            for (tag, budgets) in [
                ("iter<=7", Budgets::unlimited().with_max_iterations(7)),
                ("cost<=3", Budgets::unlimited().with_max_cost_units(3.0)),
            ] {
                let limited = cfg.db.clone().with_budgets(budgets);
                let result = subject.run(&limited, s, d);
                dump.record(cfg, "budgets", &format!("{what} {tag}"), subject, &result);
            }

            for nth in [5, 40, 400] {
                let faulty = cfg
                    .db
                    .clone()
                    .with_fault_plan(FaultPlan::inert(1).with_fail_nth_read(nth));
                let result = subject.run(&faulty, s, d);
                dump.record(
                    cfg,
                    "faults",
                    &format!("{what} fail-read#{nth}"),
                    subject,
                    &result,
                );
            }
        }
    }

    // What the run bracket folded into the registry over all of the
    // above, one run at a time.
    let counters: Vec<String> = [
        "runs_total",
        "runs_failed_total",
        "faults_injected_total",
        "iterations_total",
        "io_block_reads_total",
        "io_block_writes_total",
        "io_tuple_updates_total",
        "io_index_adjustments_total",
        "buffer_hits_total",
        "buffer_misses_total",
    ]
    .iter()
    .map(|name| format!("{name}={}", cfg.metrics.counter(name)))
    .collect();
    dump.push(cfg.name, "v5", format!("metrics {}", counters.join(" ")));
}

fn group_digest(rows: &[String]) -> u64 {
    let mut d = FNV_OFFSET;
    for row in rows {
        fnv1a(&mut d, row.as_bytes());
        fnv1a(&mut d, b"\n");
    }
    d
}

#[test]
fn every_observable_of_every_run_matches_the_four_loop_parent() {
    let mut dump = Dump::default();
    for cfg in configs() {
        dump_config(&cfg, &mut dump);
    }

    let mut text = String::new();
    for ((config, family), rows) in &dump.groups {
        for row in rows {
            text.push_str(&format!("{config}/{family}: {row}\n"));
        }
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("driver_identity.dump");
    std::fs::write(&path, &text).unwrap();

    let mut expected: BTreeMap<(String, String), u64> = GOLDEN
        .iter()
        .map(|&(c, f, d)| ((c.to_string(), f.to_string()), d))
        .collect();
    expected.insert(("*".into(), "relation-steps".into()), RELATION_STEPS);
    expected.insert(("*".into(), "blind-events".into()), BLIND_EVENTS);
    assert_eq!(
        dump.groups.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "the dump's groups are not the golden table's"
    );

    let mut offending = Vec::new();
    for (key, rows) in &dump.groups {
        let got = group_digest(rows);
        if got != expected[key] {
            eprintln!(
                "--- {}/{}: digest {got:#018x}, golden {:#018x}; its {} rows:",
                key.0,
                key.1,
                expected[key],
                rows.len()
            );
            for row in rows {
                eprintln!("{row}");
            }
            offending.push(format!("{}/{} = {got:#018x}", key.0, key.1));
        }
    }
    assert!(
        offending.is_empty(),
        "{} group(s) differ from the golden run (rows above; full dump in {}):\n{}",
        offending.len(),
        path.display(),
        offending.join("\n")
    );
}

//! The study counters, held exactly.
//!
//! `atis_bench::studies` renders the paper's own artifacts (Table 4B and
//! the tables of Figures 5–7, 9 and 10–12), the estimator study's table,
//! the scaling study's table of its networks and, per metro scale, its
//! regional and long-haul tables; `atis_bench::ablations` renders
//! Figure 8's map and the validations, ablations and extensions
//! (`STUDIES`) from rows of the same runner, all of which one binary-wide
//! run fills, each cell once. Each is committed once, in the doc that
//! reports it, between `<!-- study: NAME -->` and `<!-- /study -->`, and
//! each test here renders its tables afresh and requires them byte-equal
//! to the committed blocks. Every cell is a deterministic counter, so one
//! read more, a configuration dropped or an overlay of another size
//! fails. On a mismatch the test prints the fresh table: re-pinning a
//! moved counter is a paste that shows in the doc's diff (say why in
//! CHANGES.md, as for `tests/driver_identity.rs`). [`BLOCKS`] names every
//! block, and `ci/check-doc-links.sh` (check 16) holds it equal to the
//! markers the tracked docs carry.
//!
//! The same rows carry the orderings the studies exist to show, asserted
//! here once: the cost-based join chooser speeds up the best-first runs,
//! Manhattan loses optimality on the radial city while it flags as
//! inadmissible, v4 < v3 on the paper's networks and v4 < v3 < Dijkstra on
//! the metros, v5 < v4 on every long haul and by at least 10× at
//! metro-100k, an overlay of at most 4.0 arcs per edge, and fewer
//! physical reads under the region layout than under the shuffled one.
//! The paper's claims over its own rows are `tests/paper_tables.rs`.
//!
//! metro-100k's search tables are `#[ignore]`d (about 30 s in a release
//! build, most of it v4's diagonal); CI's release job runs
//! `cargo test --release --test study_counters -- --ignored`. The
//! networks table only generates and partitions, so all three scales of
//! it run in every build.

use atis_algorithms::{AStarVersion, Algorithm};
use atis_bench::ablations::{self, STUDIES};
use atis_bench::studies::{self, Config, Counters, PaperRow, Workload, SCALES};
use atis_graph::{CostModel, QueryKind, RadialQuery};
use atis_storage::JoinPolicy;
use std::fmt::Display;
use std::sync::OnceLock;

/// Every committed block, as (doc, marker name). A test asserts each of
/// them, and no other.
const BLOCKS: [(&str, &str); 31] = [
    ("EXPERIMENTS.md", "table4b"),
    ("EXPERIMENTS.md", "fig5"),
    ("EXPERIMENTS.md", "fig6"),
    ("EXPERIMENTS.md", "fig7"),
    ("EXPERIMENTS.md", "fig8"),
    ("EXPERIMENTS.md", "fig9"),
    ("EXPERIMENTS.md", "fig10"),
    ("EXPERIMENTS.md", "fig11"),
    ("EXPERIMENTS.md", "fig12"),
    ("EXPERIMENTS.md", "reports"),
    ("EXPERIMENTS.md", "models"),
    ("EXPERIMENTS.md", "joins"),
    ("EXPERIMENTS.md", "optimizer"),
    ("EXPERIMENTS.md", "tradeoff"),
    ("EXPERIMENTS.md", "duplicates"),
    ("EXPERIMENTS.md", "buffer"),
    ("EXPERIMENTS.md", "isam"),
    ("EXPERIMENTS.md", "allpairs"),
    ("EXPERIMENTS.md", "memdb"),
    ("EXPERIMENTS.md", "devices"),
    ("EXPERIMENTS.md", "scaling"),
    ("EXPERIMENTS.md", "radial"),
    ("EXPERIMENTS.md", "seeds"),
    ("EXPERIMENTS.md", "estimators"),
    ("SCALING.md", "networks"),
    ("SCALING.md", "metro-1k regional"),
    ("SCALING.md", "metro-1k long-haul"),
    ("SCALING.md", "metro-10k regional"),
    ("SCALING.md", "metro-10k long-haul"),
    ("SCALING.md", "metro-100k regional"),
    ("SCALING.md", "metro-100k long-haul"),
];

/// The block `<!-- study: NAME -->` … `<!-- /study -->` of the doc
/// [`BLOCKS`] files `name` under must be a blank line, `table`, and
/// nothing else.
fn assert_committed(name: &str, table: &impl Display) {
    let doc = BLOCKS
        .iter()
        .find(|&&(_, block)| block == name)
        .unwrap_or_else(|| panic!("`{name}` is not in BLOCKS"))
        .0;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {doc}: {e}"));
    let open = format!("<!-- study: {name} -->\n");
    assert_eq!(
        text.matches(&open).count(),
        1,
        "{doc} must hold exactly one `{}` marker",
        open.trim_end()
    );
    let start = text.find(&open).expect("counted above") + open.len();
    let len = text[start..]
        .find("<!-- /study -->")
        .unwrap_or_else(|| panic!("{doc}: the `{name}` block is not closed"));
    let fresh = format!("\n{table}\n");
    assert!(
        text[start..start + len] == fresh,
        "{doc}'s `{name}` table differs from the counters measured now. \
         If the change is meant, replace the block's table with this one \
         and say why in CHANGES.md:\n{fresh}"
    );
}

/// The paper's rows and every study's, each cell run once per binary.
fn rows() -> &'static [PaperRow] {
    static ROWS: OnceLock<Vec<PaperRow>> = OnceLock::new();
    ROWS.get_or_init(|| studies::run_cells(&ablations::all_cells()))
}

#[test]
fn the_paper_tables_are_the_committed_ones() {
    let rows = rows();
    assert_committed("table4b", &studies::table_4b_table(rows));
    for figure in &studies::PAPER_FIGURES {
        assert_committed(figure.name, &studies::paper_table(figure, rows));
    }
}

#[test]
fn the_study_tables_are_the_committed_ones() {
    for study in &STUDIES {
        assert_committed(study.name, &(study.render)(rows()));
    }
}

#[test]
fn the_cost_based_chooser_speeds_up_the_best_first_runs() {
    let diagonal = Workload::Grid {
        k: 20,
        costs: CostModel::TWENTY_PERCENT,
        query: QueryKind::Diagonal,
    };
    let chosen = Config {
        join: JoinPolicy::CostBased,
        ..Config::PAPER
    };
    for algorithm in [Algorithm::Dijkstra, Algorithm::AStar(AStarVersion::V3)] {
        let forced = studies::row(rows(), (diagonal, algorithm, Config::PAPER));
        let chosen = studies::row(rows(), (diagonal, algorithm, chosen));
        assert_eq!(
            forced.iterations,
            chosen.iterations,
            "{}",
            algorithm.label()
        );
        assert!(
            chosen.cost_units < forced.cost_units,
            "{}: cost-based {} must undercut forced nested-loop {}",
            algorithm.label(),
            chosen.cost_units,
            forced.cost_units
        );
    }
}

#[test]
fn manhattan_loses_optimality_on_the_radial_city() {
    let city = Config {
        seed: 7,
        ..Config::PAPER
    };
    let offset = Workload::Radial(RadialQuery::Offset);
    let v3 = studies::row(rows(), (offset, Algorithm::AStar(AStarVersion::V3), city));
    let excess = 100.0 * (v3.path_cost - v3.optimal) / v3.optimal;
    assert!(
        excess >= 0.05,
        "Offset: v3 must render a loss, got {excess:.3}%"
    );
    let radial = STUDIES
        .iter()
        .find(|s| s.name == "radial")
        .expect("a study");
    let render = (radial.render)(rows());
    assert!(
        render.contains("| manhattan | +"),
        "the admissibility check must flag manhattan:\n{render}"
    );
}

#[test]
fn the_estimator_table_is_the_committed_one() {
    let rows = studies::estimator_rows();
    for network in ["grid30", "minneapolis"] {
        let at = |version| {
            rows.iter()
                .find(|r| r.network == network && r.version == version)
                .unwrap_or_else(|| panic!("{network}: no {} row", version.label()))
                .counters
        };
        let (v3, v4) = (at(AStarVersion::V3), at(AStarVersion::V4));
        assert!(
            v4.nodes_expanded < v3.nodes_expanded && v4.block_reads < v3.block_reads,
            "{network}: v4 {v4:?} must beat v3 {v3:?}"
        );
    }
    assert_committed("estimators", &studies::estimator_table(&rows));
}

/// Runs one scale, asserts the orderings on its rows, and compares its two
/// tables with SCALING.md. v5 must expand at least `long_haul_floor` times
/// fewer nodes than v4 on the diagonal.
fn check_scale((target, network): (usize, &'static str), long_haul_floor: f64) {
    let rows = studies::scaling_rows(target, network);
    let at = |layout: &str, workload: &str, algorithm: Algorithm| -> Counters {
        rows.iter()
            .find(|r| r.layout == layout && r.workload == workload && r.algorithm == algorithm)
            .unwrap_or_else(|| {
                panic!(
                    "{network}: no {layout} {workload} row for {}",
                    algorithm.label()
                )
            })
            .counters
    };
    let (v3, v4, v5) = (
        Algorithm::AStar(AStarVersion::V3),
        Algorithm::AStar(AStarVersion::V4),
        Algorithm::AStar(AStarVersion::V5),
    );

    for layout in ["region", "shuffled"] {
        let [dijkstra, v3, v4] = [Algorithm::Dijkstra, v3, v4].map(|a| at(layout, "regional", a));
        assert!(
            v4.nodes_expanded < v3.nodes_expanded
                && v3.nodes_expanded < dijkstra.nodes_expanded
                && v4.block_reads < v3.block_reads
                && v3.block_reads < dijkstra.block_reads,
            "{network} {layout}: want v4 {v4:?} < v3 {v3:?} < Dijkstra {dijkstra:?}"
        );
    }

    let (lh4, lh5) = (at("region", "long-haul", v4), at("region", "long-haul", v5));
    let speedup = lh4.nodes_expanded as f64 / lh5.nodes_expanded as f64;
    assert!(
        lh5.nodes_expanded < lh4.nodes_expanded
            && lh5.block_reads < lh4.block_reads
            && speedup >= long_haul_floor,
        "{network} long-haul: v5 {lh5:?} must beat v4 {lh4:?} by at least \
         {long_haul_floor}x expansions (got {speedup:.1}x)"
    );

    // The size the top-down order bought (5.9 arcs per edge before it,
    // 3.9 with it at metro-100k): a later order may not give it back.
    for r in &rows {
        if let Some(arcs) = r.hierarchy_arcs {
            assert!(
                arcs <= 4 * r.edges,
                "{network} {}: {arcs} overlay arcs over {} edges is more than 4.0 per edge",
                r.layout,
                r.edges
            );
        }
    }

    let physical = |layout: &str| -> u64 {
        rows.iter()
            .filter(|r| r.layout == layout && r.workload == "regional")
            .map(|r| r.counters.physical_reads)
            .sum()
    };
    assert!(
        physical("region") < physical("shuffled"),
        "{network}: the region layout must read fewer physical blocks ({} vs shuffled {})",
        physical("region"),
        physical("shuffled")
    );

    assert_committed(
        &format!("{network} regional"),
        &studies::regional_table(&rows),
    );
    assert_committed(
        &format!("{network} long-haul"),
        &studies::long_haul_table(&rows),
    );
}

#[test]
fn the_metro_1k_tables_are_the_committed_ones() {
    check_scale(SCALES[0], 1.0);
}

#[test]
fn the_metro_10k_tables_are_the_committed_ones() {
    check_scale(SCALES[1], 1.0);
}

#[test]
#[ignore = "metro-100k: about 30 s in a release build; CI's release job runs it"]
fn the_metro_100k_tables_are_the_committed_ones() {
    check_scale(SCALES[2], 10.0);
}

#[test]
fn the_network_table_is_the_committed_one() {
    let rows = SCALES.map(|(target, network)| studies::network_row(target, network));
    for r in &rows {
        assert_eq!(
            r.nodes,
            r.cities.0 * r.cities.1 * 256,
            "{}: one region a city",
            r.network
        );
        assert!(
            r.blocks.r <= r.regions,
            "{}: a region fills one `R` block",
            r.network
        );
    }
    assert_committed("networks", &studies::networks_table(&rows));
}

//! Chaos suite for the fault-injection layer. How the serving layer rides
//! the same faults out (degrade ladder, storage breaker, stale tier) is
//! `tests/chaos_serving.rs`.
//!
//! The contract under injected faults is strict: every run either returns
//! a path identical to the fault-free run, or a *typed* error. Never a
//! panic, never a silently wrong path. Because every fault decision is a
//! pure function of `(seed, op kind, op index)`, each seed is exactly
//! reproducible — a failing seed here is a one-line repro.

use atis::algorithms::{AStarVersion, Algorithm, Budgets, Database};
use atis::storage::FaultPlan;
use atis::{CostModel, Grid, NodeId, QueryKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Iterative,
    Algorithm::Dijkstra,
    Algorithm::AStar(AStarVersion::V1),
    Algorithm::AStar(AStarVersion::V2),
    Algorithm::AStar(AStarVersion::V3),
];

fn grid() -> Grid {
    Grid::new(6, CostModel::TWENTY_PERCENT, 11).unwrap()
}

/// The core chaos sweep: 50 seeds x all five database-resident
/// algorithms, each under a mixed fault plan (planned hard failure +
/// probabilistic transient read/write failures + torn writes).
#[test]
fn chaos_sweep_never_panics_and_never_returns_a_wrong_path() {
    let grid = grid();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);

    // Fault-free reference paths, one per algorithm (A* v3's Manhattan
    // estimator may be inadmissible, so each algorithm is its own oracle).
    let clean = Database::open(grid.graph()).unwrap();
    let reference: Vec<Option<(Vec<NodeId>, f64)>> = ALGORITHMS
        .iter()
        .map(|&a| {
            clean
                .run(a, s, d)
                .unwrap()
                .path
                .map(|p| (p.nodes.clone(), p.cost))
        })
        .collect();

    let mut failures = 0u32;
    let mut successes = 0u32;
    for seed in 0..50u64 {
        for (i, &algorithm) in ALGORITHMS.iter().enumerate() {
            let db = Database::open(grid.graph())
                .unwrap()
                .with_fault_plan(FaultPlan::chaos(seed));
            let outcome = catch_unwind(AssertUnwindSafe(|| db.run(algorithm, s, d)));
            let result = outcome.unwrap_or_else(|_| {
                panic!(
                    "seed {seed}, {}: panicked under chaos plan",
                    algorithm.label()
                )
            });
            match result {
                Ok(trace) => {
                    successes += 1;
                    let got = trace.path.map(|p| (p.nodes.clone(), p.cost));
                    assert_eq!(
                        got,
                        reference[i],
                        "seed {seed}, {}: survived faults but changed the answer",
                        algorithm.label()
                    );
                }
                Err(e) => {
                    failures += 1;
                    // The error must be a typed storage failure, not an
                    // endpoint error (the query is valid).
                    assert!(
                        matches!(e, atis::algorithms::AlgorithmError::Storage(_)),
                        "seed {seed}, {}: unexpected error kind {e}",
                        algorithm.label()
                    );
                }
            }
        }
    }
    // The chaos mixture must actually exercise both outcomes, or the
    // sweep proves nothing.
    assert!(failures > 0, "no chaos seed ever injected a visible fault");
    assert!(successes > 0, "every chaos seed killed the run");
}

/// Same fault plan, same query => the identical sequence of fault events,
/// hence the identical outcome (error and all).
#[test]
fn chaos_runs_are_reproducible() {
    let grid = grid();
    let (s, d) = grid.query_pair(QueryKind::Random);
    for seed in [3u64, 17, 29] {
        let run = || {
            Database::open(grid.graph())
                .unwrap()
                .with_fault_plan(FaultPlan::chaos(seed))
                .run(Algorithm::AStar(AStarVersion::V3), s, d)
        };
        let (a, b) = (run(), run());
        match (a, b) {
            (Ok(ta), Ok(tb)) => {
                assert_eq!(ta.io, tb.io, "seed {seed}");
                assert_eq!(ta.iterations, tb.iterations, "seed {seed}");
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "seed {seed}"),
            (a, b) => panic!("seed {seed}: diverged: {a:?} vs {b:?}"),
        }
    }
}

/// An attached-but-inert plan must not perturb the metered I/O by a
/// single counter: the injection plumbing is free when it never fires.
#[test]
fn inert_plan_leaves_iostats_bit_identical() {
    let grid = grid();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    for &algorithm in &ALGORITHMS {
        let clean = Database::open(grid.graph())
            .unwrap()
            .run(algorithm, s, d)
            .unwrap();
        let inert = Database::open(grid.graph())
            .unwrap()
            .with_fault_plan(FaultPlan::inert(99))
            .run(algorithm, s, d)
            .unwrap();
        assert_eq!(clean.io, inert.io, "{}", algorithm.label());
        assert_eq!(clean.iterations, inert.iterations, "{}", algorithm.label());
        assert_eq!(
            clean.path.map(|p| p.nodes),
            inert.path.map(|p| p.nodes),
            "{}",
            algorithm.label()
        );
    }
}

/// Budget exhaustion is a typed error.
#[test]
fn budget_exhaustion_is_a_typed_error() {
    let grid = grid();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let db = Database::open(grid.graph())
        .unwrap()
        .with_budgets(Budgets::unlimited().with_max_iterations(2));
    let err = db.run(Algorithm::Dijkstra, s, d).unwrap_err();
    assert!(matches!(
        err,
        atis::algorithms::AlgorithmError::BudgetExceeded(atis::algorithms::BudgetKind::Iterations)
    ));
}

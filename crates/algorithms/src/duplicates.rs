//! The frontier duplicate-management policies of Section 4.
//!
//! "Duplicate management in the frontierSet is an important design
//! decision. It can be done in three ways: avoiding duplicates, removing
//! duplicates, or allowing duplicates. Allowing duplicates leads to
//! redundant iterations of the algorithm. Duplicates can be avoided by
//! checking the status of the node to be null before adding it to the
//! frontierSet. Duplicates can also be eliminated after insertion in
//! frontierSet by duplication-elimination algorithms, but we prefer
//! duplicate avoidance for its cost effectiveness."
//!
//! [`run_with_duplicate_policy`] runs relation-frontier A\* under each
//! policy so the preference can be measured (the `duplicates` ablation in
//! `atis-bench`). A policy is a frontier representation of the crate's
//! single best-first loop (the crate-private `search` module), nothing
//! more — so every policy is budgeted, observed and attributed per step
//! exactly like every other run:
//!
//! * **Avoid** — membership is checked before every insertion (the
//!   default elsewhere in this crate); each relaxation pays an index
//!   probe.
//! * **Allow** — insertions are blind (no probe), but stale entries
//!   survive in the frontier and inflate the iteration count when
//!   selected.
//! * **Eliminate** — insertions are blind and a duplicate-elimination
//!   pass sweeps the frontier after each iteration's relaxations.

use crate::astar::run_custom;
use crate::database::{Database, FrontierKind};
use crate::error::AlgorithmError;
use crate::estimator::Estimator;
use crate::search::{best_first, BlindFrontier, Spec};
use crate::trace::RunTrace;
use atis_graph::NodeId;

/// The three duplicate-management options of Section 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DuplicatePolicy {
    /// Check membership before inserting (the paper's preference).
    Avoid,
    /// Insert blindly; sweep duplicates after each iteration.
    Eliminate,
    /// Insert blindly; tolerate redundant selections.
    Allow,
}

impl DuplicatePolicy {
    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            DuplicatePolicy::Avoid => "avoid",
            DuplicatePolicy::Eliminate => "eliminate",
            DuplicatePolicy::Allow => "allow",
        }
    }

    /// All three policies in the paper's order.
    pub const ALL: [DuplicatePolicy; 3] = [
        DuplicatePolicy::Avoid,
        DuplicatePolicy::Eliminate,
        DuplicatePolicy::Allow,
    ];
}

/// Runs relation-frontier A\* under the given duplicate policy.
///
/// # Errors
/// Fails for unknown endpoints or storage errors.
pub fn run_with_duplicate_policy(
    db: &Database,
    s: NodeId,
    d: NodeId,
    estimator: Estimator,
    policy: DuplicatePolicy,
) -> Result<RunTrace, AlgorithmError> {
    if !db.graph().contains(s) {
        return Err(AlgorithmError::UnknownSource(s));
    }
    if !db.graph().contains(d) {
        return Err(AlgorithmError::UnknownDestination(d));
    }
    let spec = Spec {
        label: format!("A* (relation frontier, {} duplicates)", policy.label()),
        estimator,
        reopen_closed: true,
        alt: None,
    };
    let budgets = db.budgets();
    Ok(match policy {
        // The avoidance policy *is* the standard relation-frontier A*
        // (and says so to a trace sink); only the trace is relabelled.
        DuplicatePolicy::Avoid => RunTrace {
            algorithm: spec.label,
            ..run_custom(db, s, d, FrontierKind::SeparateRelation, estimator, budgets)?
        },
        DuplicatePolicy::Eliminate => {
            best_first::<BlindFrontier<true>>(db, s, &[d], spec, budgets)?.trace_to(d)
        }
        DuplicatePolicy::Allow => {
            best_first::<BlindFrontier<false>>(db, s, &[d], spec, budgets)?.trace_to(d)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory;
    use atis_graph::{CostModel, Grid, QueryKind};

    fn setup() -> (Grid, Database) {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 13).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        (grid, db)
    }

    #[test]
    fn all_policies_find_the_optimal_path() {
        let (grid, db) = setup();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        for policy in DuplicatePolicy::ALL {
            let t = run_with_duplicate_policy(&db, s, d, Estimator::Manhattan, policy).unwrap();
            let p = t.path.expect("connected");
            let recomputed = p.validate(grid.graph()).unwrap();
            assert!(
                (recomputed - oracle.cost).abs() < 1e-3,
                "{}: {} vs {}",
                policy.label(),
                recomputed,
                oracle.cost
            );
        }
    }

    #[test]
    fn allowing_duplicates_causes_redundant_iterations() {
        let (grid, db) = setup();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let avoid =
            run_with_duplicate_policy(&db, s, d, Estimator::Manhattan, DuplicatePolicy::Avoid)
                .unwrap();
        let allow =
            run_with_duplicate_policy(&db, s, d, Estimator::Manhattan, DuplicatePolicy::Allow)
                .unwrap();
        assert!(
            allow.iterations >= avoid.iterations,
            "allow {} vs avoid {}",
            allow.iterations,
            avoid.iterations
        );
        // The expansions (non-redundant work) stay comparable.
        assert!(allow.expanded <= allow.iterations);
    }

    #[test]
    fn elimination_restores_the_iteration_count() {
        let (grid, db) = setup();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let avoid =
            run_with_duplicate_policy(&db, s, d, Estimator::Manhattan, DuplicatePolicy::Avoid)
                .unwrap();
        let elim =
            run_with_duplicate_policy(&db, s, d, Estimator::Manhattan, DuplicatePolicy::Eliminate)
                .unwrap();
        // Sweeping duplicates keeps selections near the avoidance count.
        assert!(elim.iterations <= avoid.iterations + avoid.iterations / 4 + 2);
    }

    #[test]
    fn labels() {
        assert_eq!(DuplicatePolicy::Avoid.label(), "avoid");
        assert_eq!(DuplicatePolicy::Eliminate.label(), "eliminate");
        assert_eq!(DuplicatePolicy::Allow.label(), "allow");
    }

    #[test]
    fn rejects_unknown_endpoints() {
        let (_, db) = setup();
        let bad = NodeId(10_000);
        assert!(run_with_duplicate_policy(
            &db,
            bad,
            NodeId(0),
            Estimator::Zero,
            DuplicatePolicy::Allow
        )
        .is_err());
    }
}

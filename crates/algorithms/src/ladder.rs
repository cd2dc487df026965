//! The degrade ladder, as data.
//!
//! A\* v3, v4 (landmarks) and v5 (contraction hierarchy) are one search
//! with heuristics of decreasing tightness to fall back on (the paper's
//! §5.3/§6 point, extended to the preprocessing tiers). This module
//! owns that fall-back order for the whole workspace: [`TABLE`] is the
//! rungs, [`sequence`] the rungs a given primary walks, [`Fall::of`] the
//! one `match` from every [`AlgorithmError`] variant to where the walk
//! goes next (total because it lives in the crate that defines the
//! enum: a new variant does not compile until it is classified here),
//! and [`walk`] the one walker — `RoutePlanner::plan_resilient` and the
//! serving layer each call it with a [`Policy`], not a walker of their
//! own.

use crate::astar::AStarVersion;
use crate::database::{Algorithm, Database};
use crate::error::{AlgorithmError, BudgetKind};

/// The preprocessed artifact a rung cannot run without.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Needs {
    /// The contraction hierarchy (`Database::with_hierarchy`).
    Hierarchy,
    /// The landmark tables (`Database::with_landmarks`).
    Landmarks,
    /// Only the stored graph.
    Nothing,
}

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Stable label (`RouteOutcome::Degraded::rung`, trace events).
    pub name: &'static str,
    /// What the rung runs.
    pub algorithm: Algorithm,
    /// What it cannot run without — read off the algorithm's description
    /// ([`Algorithm::describe`]) when the rung is made, never restated.
    pub needs: Needs,
}

impl Rung {
    const fn new(name: &'static str, algorithm: Algorithm) -> Rung {
        Rung {
            name,
            algorithm,
            needs: algorithm.describe().needs,
        }
    }
}

/// The name every sequence's first rung answers to.
pub const PRIMARY: &str = "primary";

/// The ladder, strongest rung first. Every rung answers exactly; lower
/// rungs need less preprocessing and expand more nodes.
pub const TABLE: [Rung; 4] = [
    Rung::new("astar-v5", Algorithm::AStar(AStarVersion::V5)),
    Rung::new("astar-v4", Algorithm::AStar(AStarVersion::V4)),
    Rung::new("astar-v3", Algorithm::AStar(AStarVersion::V3)),
    Rung::new("dijkstra", Algorithm::Dijkstra),
];

/// The rungs a `primary` algorithm walks: itself (named [`PRIMARY`]),
/// then every row strictly below it. A primary outside the table
/// (Iterative, A\* v1/v2, a custom configuration) has only the last
/// row, Dijkstra, below it; Dijkstra is its own whole ladder, so a
/// storage fall re-runs it.
pub fn sequence(primary: Algorithm) -> Vec<Rung> {
    let row = TABLE.iter().position(|r| r.algorithm == primary);
    let below = row.map_or(TABLE.len() - 1, |i| i + 1);
    std::iter::once(Rung::new(PRIMARY, primary))
        .chain(TABLE[below..].iter().copied())
        .collect()
}

/// Where a failed rung sends the walk, by cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fall {
    /// The rung's artifact is missing or stale: the next rung down (no
    /// artifact is needed twice in [`TABLE`], so it never needs it too).
    Artifact,
    /// Storage trouble: the last rung, once per walk (a walk already
    /// standing on it re-runs it) — injected faults advance the global
    /// op counters, and the plain algorithm reads fewer blocks than an
    /// estimator-guided one under partial information.
    Storage,
    /// A budget ran out: the next rung down, or the end of the walk —
    /// [`Policy::BUDGET_FALLS`] decides.
    Budget(BudgetKind),
    /// The query itself is wrong (unknown endpoints, a corrupt graph):
    /// no rung can answer it, the walk ends.
    Stop,
}

impl Fall {
    /// The ladder's error → fall map: total over [`AlgorithmError`].
    pub fn of(error: &AlgorithmError) -> Fall {
        match error {
            AlgorithmError::HierarchyUnavailable(_) | AlgorithmError::LandmarksUnavailable(_) => {
                Fall::Artifact
            }
            AlgorithmError::Storage(_) => Fall::Storage,
            AlgorithmError::BudgetExceeded(kind) => Fall::Budget(*kind),
            AlgorithmError::Graph(_)
            | AlgorithmError::UnknownSource(_)
            | AlgorithmError::UnknownDestination(_) => Fall::Stop,
        }
    }
}

/// One attempt the walker is about to make (or just made).
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// Position of `rung` in the walked sequence (0 = the primary).
    pub index: usize,
    /// The rung being run.
    pub rung: &'a Rung,
    /// Same-rung retries so far (0 = first attempt).
    pub retry: u32,
}

/// What legitimately differs between the ladder's callers. One more
/// difference — the tail below the last rung (the planner's in-memory
/// oracle; serving's stale tier, then a typed shed) — is whatever the
/// caller does with [`Walked::Ended`].
pub trait Policy {
    /// What an exhausted budget means: `true` moves on to the next rung
    /// (the planner — a cheaper rung may fit the standing budget),
    /// `false` ends the walk (serving — the budget *is* the request's
    /// deadline, and a lower rung only costs more).
    const BUDGET_FALLS: bool;

    /// Admission beyond "is its artifact attached" (which [`walk`]
    /// checks itself) for a rung a failure moves the walk to — never
    /// asked for the primary's first run. `false` passes the rung over.
    fn admit(&mut self, _rung: &Rung) -> bool {
        true
    }

    /// Observes one failed attempt and decides whether the same rung
    /// runs again.
    fn failed(&mut self, step: &Step<'_>, error: &AlgorithmError) -> bool;

    /// Observes the walk leaving rung `from`, which failed with `error`,
    /// for a different one.
    fn hop(&mut self, from: &Rung, to: &Step<'_>, error: &AlgorithmError);
}

/// How a walk ended.
#[derive(Debug)]
pub enum Walked<T> {
    /// `rung` (at `index` in the sequence) answered.
    Answered {
        /// Position of the answering rung (0 = the primary).
        index: usize,
        /// The answering rung.
        rung: Rung,
        /// What the run closure returned.
        value: T,
    },
    /// The last rung that ran failed with `error` (classify it with
    /// [`Fall::of`]): it stops every walk, or nothing below was left to
    /// fall to.
    Ended {
        /// The final failure.
        error: AlgorithmError,
    },
}

/// Walks `rungs` from the top against `db`: runs (`run`) the primary
/// and, when a rung fails, lets [`Fall::of`] name the candidates to move
/// to — until a rung answers or no candidate is left. The primary always
/// runs (and reports a missing artifact itself); a rung the walk falls
/// to runs only when `db` carries its artifact at all and the policy
/// admits it — a stale artifact is only discovered by running against it.
pub fn walk<P: Policy, T>(
    db: &Database,
    rungs: &[Rung],
    policy: &mut P,
    mut run: impl FnMut(&Step<'_>) -> Result<T, AlgorithmError>,
) -> Walked<T> {
    let mut storage_fall_left = true;
    let mut step = Step {
        index: 0,
        rung: &rungs[0],
        retry: 0,
    };
    loop {
        let error = loop {
            match run(&step) {
                Ok(value) => {
                    return Walked::Answered {
                        index: step.index,
                        rung: *step.rung,
                        value,
                    }
                }
                Err(error) if policy.failed(&step, &error) => step.retry += 1,
                Err(error) => break error,
            }
        };
        let at = step.index;
        let mut candidates = match Fall::of(&error) {
            Fall::Artifact => at + 1..rungs.len(),
            Fall::Budget(_) if P::BUDGET_FALLS => at + 1..rungs.len(),
            Fall::Storage if std::mem::take(&mut storage_fall_left) => rungs.len() - 1..rungs.len(),
            Fall::Storage | Fall::Budget(_) | Fall::Stop => 0..0,
        };
        let admitted = candidates.find(|&i| {
            let attached = match rungs[i].needs {
                Needs::Hierarchy => db.hierarchy().is_some(),
                Needs::Landmarks => db.landmarks().is_some(),
                Needs::Nothing => true,
            };
            attached && policy.admit(&rungs[i])
        });
        let Some(next) = admitted else {
            return Walked::Ended { error };
        };
        let from = step.rung;
        step = Step {
            index: next,
            rung: &rungs[next],
            retry: 0,
        };
        if next != at {
            policy.hop(from, &step, &error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{HierarchyIssue, LandmarkIssue};
    use atis_graph::{CostModel, Grid, NodeId};
    use atis_preprocess::{LandmarkTables, PreprocessConfig};
    use atis_storage::StorageError;

    /// A database carrying landmark tables (so `astar-v4` is a live
    /// rung) but no hierarchy.
    fn db() -> Database {
        let grid = Grid::new(4, CostModel::TWENTY_PERCENT, 1).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        Database::open(grid.graph()).unwrap().with_landmarks(tables)
    }

    fn names(primary: Algorithm) -> Vec<&'static str> {
        sequence(primary).iter().map(|r| r.name).collect()
    }

    #[test]
    fn a_primary_walks_itself_then_every_row_strictly_below() {
        let v = |version| Algorithm::AStar(version);
        assert_eq!(
            names(v(AStarVersion::V5)),
            ["primary", "astar-v4", "astar-v3", "dijkstra"]
        );
        assert_eq!(
            names(v(AStarVersion::V4)),
            ["primary", "astar-v3", "dijkstra"]
        );
        assert_eq!(names(v(AStarVersion::V3)), ["primary", "dijkstra"]);
        assert_eq!(names(Algorithm::Dijkstra), ["primary"]);
        // Outside the table: only the last row is below.
        assert_eq!(names(Algorithm::Iterative), ["primary", "dijkstra"]);
        assert_eq!(names(v(AStarVersion::V1)), ["primary", "dijkstra"]);
        // The primary keeps its row's artifact.
        assert_eq!(sequence(v(AStarVersion::V5))[0].needs, Needs::Hierarchy);
        assert_eq!(sequence(Algorithm::Iterative)[0].needs, Needs::Nothing);
    }

    #[test]
    fn every_rung_needs_what_its_algorithm_is_described_to_need() {
        for rung in TABLE {
            assert_eq!(rung.needs, rung.algorithm.describe().needs, "{}", rung.name);
        }
    }

    #[test]
    fn no_artifact_is_needed_twice_and_the_last_rung_needs_none() {
        // What lets `Fall::Artifact` mean "the next rung down".
        for needs in [Needs::Hierarchy, Needs::Landmarks] {
            assert_eq!(TABLE.iter().filter(|r| r.needs == needs).count(), 1);
        }
        assert_eq!(TABLE[TABLE.len() - 1].needs, Needs::Nothing);
    }

    /// A scripted policy: refuses the listed rungs, retries transient
    /// errors `retries` times, and logs every hop.
    struct Script<const BUDGET_FALLS: bool> {
        deny: Vec<&'static str>,
        retries: u32,
        hops: Vec<(&'static str, &'static str, String)>,
    }

    impl<const B: bool> Script<B> {
        fn new(deny: &[&'static str], retries: u32) -> Self {
            Script {
                deny: deny.to_vec(),
                retries,
                hops: Vec::new(),
            }
        }
    }

    impl<const B: bool> Policy for Script<B> {
        const BUDGET_FALLS: bool = B;
        fn admit(&mut self, rung: &Rung) -> bool {
            !self.deny.contains(&rung.name)
        }
        fn failed(&mut self, step: &Step<'_>, error: &AlgorithmError) -> bool {
            error.is_transient() && step.retry < self.retries
        }
        fn hop(&mut self, from: &Rung, to: &Step<'_>, error: &AlgorithmError) {
            self.hops.push((from.name, to.rung.name, error.to_string()));
        }
    }

    fn io_fault() -> AlgorithmError {
        AlgorithmError::Storage(StorageError::IoFailed {
            op: "read",
            block: 1,
            op_index: 1,
        })
    }

    /// Runs a v5 walk in which each rung listed in `fail` fails with its
    /// error; returns the outcome and the rungs that ran, in order.
    fn walk_v5<const B: bool>(
        script: &mut Script<B>,
        fail: &[(&'static str, AlgorithmError)],
    ) -> (Walked<&'static str>, Vec<&'static str>) {
        let rungs = sequence(Algorithm::AStar(AStarVersion::V5));
        let mut ran = Vec::new();
        let walked = walk(&db(), &rungs, script, |step| {
            ran.push(step.rung.name);
            match fail.iter().find(|(name, _)| *name == step.rung.name) {
                Some((_, error)) => Err(error.clone()),
                None => Ok(step.rung.name),
            }
        });
        (walked, ran)
    }

    fn answered(walked: &Walked<&'static str>) -> Option<&'static str> {
        match walked {
            Walked::Answered { value, .. } => Some(value),
            _ => None,
        }
    }

    #[test]
    fn an_unavailable_artifact_falls_past_every_rung_that_needs_it() {
        let stale_h = AlgorithmError::HierarchyUnavailable(HierarchyIssue::Stale);
        let stale_l = AlgorithmError::LandmarksUnavailable(LandmarkIssue::Stale);
        let mut script = Script::<false>::new(&[], 0);
        let (walked, ran) = walk_v5(
            &mut script,
            &[("primary", stale_h.clone()), ("astar-v4", stale_l.clone())],
        );
        assert_eq!(answered(&walked), Some("astar-v3"));
        assert_eq!(ran, ["primary", "astar-v4", "astar-v3"]);
        assert_eq!(
            script.hops,
            [
                ("primary", "astar-v4", stale_h.to_string()),
                ("astar-v4", "astar-v3", stale_l.to_string()),
            ]
        );
    }

    #[test]
    fn a_lower_rung_whose_artifact_is_not_attached_is_skipped_unasked() {
        let stale_h = AlgorithmError::HierarchyUnavailable(HierarchyIssue::Stale);
        let grid = Grid::new(4, CostModel::TWENTY_PERCENT, 1).unwrap();
        let bare = Database::open(grid.graph()).unwrap();
        let rungs = sequence(Algorithm::AStar(AStarVersion::V5));
        let mut script = Script::<false>::new(&[], 0);
        let mut ran = Vec::new();
        // The primary runs although `bare` has no hierarchy (its error
        // says so); `astar-v4` is passed over without a hop of its own.
        let walked = walk(&bare, &rungs, &mut script, |step| {
            ran.push(step.rung.name);
            match step.index {
                0 => Err(stale_h.clone()),
                _ => Ok(step.rung.name),
            }
        });
        assert_eq!(answered(&walked), Some("astar-v3"));
        assert_eq!(ran, ["primary", "astar-v3"]);
        assert_eq!(script.hops, [("primary", "astar-v3", stale_h.to_string())]);
    }

    #[test]
    fn storage_trouble_falls_to_the_last_rung_exactly_once() {
        let mut script = Script::<false>::new(&[], 0);
        let (walked, ran) = walk_v5(&mut script, &[("primary", io_fault())]);
        assert_eq!(answered(&walked), Some("dijkstra"));
        assert_eq!(ran, ["primary", "dijkstra"]);

        let mut script = Script::<false>::new(&[], 0);
        let (walked, ran) = walk_v5(
            &mut script,
            &[("primary", io_fault()), ("dijkstra", io_fault())],
        );
        assert!(matches!(
            walked,
            Walked::Ended {
                error: AlgorithmError::Storage(_)
            }
        ));
        assert_eq!(ran, ["primary", "dijkstra"]);

        // A one-rung ladder re-runs its only rung, once, and never hops.
        let rungs = sequence(Algorithm::Dijkstra);
        let mut script = Script::<false>::new(&[], 0);
        let mut runs = 0;
        let walked = walk(&db(), &rungs, &mut script, |_| {
            runs += 1;
            if runs == 1 {
                Err(io_fault())
            } else {
                Ok(runs)
            }
        });
        assert!(matches!(
            walked,
            Walked::Answered {
                index: 0,
                value: 2,
                ..
            }
        ));
        assert!(script.hops.is_empty());
    }

    #[test]
    fn transient_errors_retry_the_same_rung_when_the_policy_says_so() {
        let rungs = sequence(Algorithm::AStar(AStarVersion::V3));
        let mut script = Script::<true>::new(&[], 2);
        let mut retries_seen = Vec::new();
        let walked = walk(&db(), &rungs, &mut script, |step| {
            retries_seen.push((step.index, step.retry));
            if step.retry < 2 {
                Err(io_fault())
            } else {
                Ok(())
            }
        });
        assert!(matches!(walked, Walked::Answered { index: 0, .. }));
        assert_eq!(retries_seen, [(0, 0), (0, 1), (0, 2)]);
    }

    #[test]
    fn out_of_budget_means_what_the_policy_says() {
        let broke = AlgorithmError::BudgetExceeded(BudgetKind::CostUnits);
        let mut stops = Script::<false>::new(&[], 0);
        let (walked, ran) = walk_v5(&mut stops, &[("primary", broke.clone())]);
        assert!(matches!(
            walked,
            Walked::Ended {
                error: AlgorithmError::BudgetExceeded(BudgetKind::CostUnits)
            }
        ));
        assert_eq!(ran, ["primary"]);

        let mut falls = Script::<true>::new(&[], 0);
        let (walked, ran) = walk_v5(&mut falls, &[("primary", broke)]);
        assert_eq!(answered(&walked), Some("astar-v4"));
        assert_eq!(ran, ["primary", "astar-v4"]);
    }

    #[test]
    fn a_wrong_query_stops_the_walk() {
        let mut script = Script::<true>::new(&[], 3);
        let (walked, ran) = walk_v5(
            &mut script,
            &[("primary", AlgorithmError::UnknownSource(NodeId(9)))],
        );
        assert!(matches!(
            walked,
            Walked::Ended {
                error: AlgorithmError::UnknownSource(_)
            }
        ));
        assert_eq!(ran, ["primary"]);
    }

    #[test]
    fn a_refused_storage_fall_ends_the_walk_after_the_primary() {
        // What serving's storage breaker does when a failure mid-walk
        // trips it: the rung the storage fall lands on is refused, so
        // nothing runs after the primary — which is never asked.
        let mut script = Script::<false>::new(&["primary", "dijkstra"], 0);
        let (walked, ran) = walk_v5(&mut script, &[("primary", io_fault())]);
        assert!(matches!(
            walked,
            Walked::Ended {
                error: AlgorithmError::Storage(_)
            }
        ));
        assert_eq!(ran, ["primary"]);
        assert!(script.hops.is_empty());
    }
}

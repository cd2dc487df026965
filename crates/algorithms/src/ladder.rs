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
//! and [`walk`] the one walker, which the serving layer's `RouteService`
//! calls with its [`Policy`]. A walk never retries a rung, and an
//! exhausted budget ends it.

#![warn(clippy::wildcard_enum_match_arm)]

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
    /// A budget ran out: the end of the walk — the budget is the
    /// request's allowance, and a lower rung only costs more.
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
}

/// The caller's side of a walk: admission and what it observes. The tail
/// below the last rung (serving's stale tier, then a typed shed) is
/// whatever the caller does with [`Walked::Ended`].
pub trait Policy {
    /// Admission beyond "is its artifact attached" (which [`walk`]
    /// checks itself) for a rung a failure moves the walk to — never
    /// asked for the primary's first run. `false` passes the rung over.
    fn admit(&mut self, _rung: &Rung) -> bool {
        true
    }

    /// Observes one failed attempt.
    fn failed(&mut self, step: &Step<'_>, error: &AlgorithmError);

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
    };
    loop {
        let error = match run(&step) {
            Ok(value) => {
                return Walked::Answered {
                    index: step.index,
                    rung: *step.rung,
                    value,
                }
            }
            Err(error) => error,
        };
        policy.failed(&step, &error);
        let at = step.index;
        let mut candidates = match Fall::of(&error) {
            Fall::Artifact => at + 1..rungs.len(),
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
        };
        if next != at {
            policy.hop(from, &step, &error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ArtifactIssue;
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

    /// A scripted policy: refuses the listed rungs and logs every hop.
    struct Script {
        deny: Vec<&'static str>,
        hops: Vec<(&'static str, &'static str, String)>,
    }

    impl Script {
        fn new(deny: &[&'static str]) -> Self {
            Script {
                deny: deny.to_vec(),
                hops: Vec::new(),
            }
        }
    }

    impl Policy for Script {
        fn admit(&mut self, rung: &Rung) -> bool {
            !self.deny.contains(&rung.name)
        }
        fn failed(&mut self, _: &Step<'_>, _: &AlgorithmError) {}
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
    fn walk_v5(
        script: &mut Script,
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
        let stale_h = AlgorithmError::HierarchyUnavailable(ArtifactIssue::Stale);
        let stale_l = AlgorithmError::LandmarksUnavailable(ArtifactIssue::Stale);
        let mut script = Script::new(&[]);
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
        let stale_h = AlgorithmError::HierarchyUnavailable(ArtifactIssue::Stale);
        let grid = Grid::new(4, CostModel::TWENTY_PERCENT, 1).unwrap();
        let bare = Database::open(grid.graph()).unwrap();
        let rungs = sequence(Algorithm::AStar(AStarVersion::V5));
        let mut script = Script::new(&[]);
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
        let mut script = Script::new(&[]);
        let (walked, ran) = walk_v5(&mut script, &[("primary", io_fault())]);
        assert_eq!(answered(&walked), Some("dijkstra"));
        assert_eq!(ran, ["primary", "dijkstra"]);

        let mut script = Script::new(&[]);
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
        let mut script = Script::new(&[]);
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
    fn out_of_budget_ends_the_walk() {
        let broke = AlgorithmError::BudgetExceeded(BudgetKind::CostUnits);
        let mut script = Script::new(&[]);
        let (walked, ran) = walk_v5(&mut script, &[("primary", broke)]);
        assert!(matches!(
            walked,
            Walked::Ended {
                error: AlgorithmError::BudgetExceeded(BudgetKind::CostUnits)
            }
        ));
        assert_eq!(ran, ["primary"]);
        assert!(script.hops.is_empty());
    }

    #[test]
    fn a_wrong_query_stops_the_walk() {
        let mut script = Script::new(&[]);
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
        let mut script = Script::new(&["primary", "dijkstra"]);
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

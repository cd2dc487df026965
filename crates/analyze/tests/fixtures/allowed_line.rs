// Fixture: a non-exhaustive-errors violation suppressed by a line
// directive — the linter must report nothing. Never compiled.
// analyze::allow(non-exhaustive-errors): fixture exercising the line-level escape hatch
pub enum WireError {
    Closed,
}

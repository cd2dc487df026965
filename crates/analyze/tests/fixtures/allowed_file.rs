// analyze::allow-file(non-exhaustive-errors)
// Fixture: two non-exhaustive-errors violations suppressed by one
// file-level directive — the linter must report nothing. Never compiled.
pub enum ParseError {
    Empty,
}

pub enum ReplyError {
    Closed,
}

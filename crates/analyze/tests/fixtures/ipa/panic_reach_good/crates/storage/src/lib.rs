//! Storage half of the fixed panic-reachability fixture: the miss is
//! propagated, not unwrapped. The `expect` left in `fetch_or_abort` is
//! not reachable from `execute`, so it is not a finding.

pub fn fetch() -> Option<u32> {
    lookup()
}

fn lookup() -> Option<u32> {
    None
}

pub fn fetch_or_abort() -> u32 {
    lookup().expect("key present")
}

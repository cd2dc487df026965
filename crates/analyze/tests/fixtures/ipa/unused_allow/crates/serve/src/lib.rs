//! A stale allow directive: the panic it once masked is gone, so the
//! analyzer must flag the directive itself.

// analyze::allow(panic-reachability): stale — the unwrap this masked was removed
pub fn tidy() {}

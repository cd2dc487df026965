//! The serve crate's synchronization choke point.
//!
//! Two jobs in one small module:
//!
//! 1. **The `cfg(loom)` shim.** Every sync primitive the serving layer
//!    uses is imported from here, so building with
//!    `RUSTFLAGS="--cfg loom"` swaps `std::sync` for `loom::sync` (the
//!    vendored bounded-interleaving stand-in — see `vendor/loom`) and
//!    the loom model tests in `tests/loom_models.rs` exercise the real
//!    serving code under perturbed schedules.
//! 2. **The designated acquisition helpers.** [`lock`] and [`wait`]
//!    are the only places in the crate allowed to call `Mutex::lock` /
//!    `Condvar::wait` directly — the crate's `clippy.toml` disallows
//!    those methods and the two helpers below carry the crate's only
//!    `#[expect(clippy::disallowed_methods)]`. They encode the crate's
//!    poisoning policy: a panicking worker must not wedge the whole
//!    service, so a poisoned lock is recovered with `into_inner` — all
//!    state guarded here (queue, snapshot slot, cache table, answer
//!    slots) stays structurally valid mid-update (the install lock
//!    guards no data at all: an install that panics has published
//!    nothing).
//!
//! Call-site discipline: per-lock named helpers (`lock_queue`,
//! `lock_writer`, `lock_current`, `lock_entries`, `lock_slot`,
//! `lock_breaker`) wrap [`lock`] so the `lock-order` rule can check the
//! declared acquisition order (`atis-analyze rules` prints it) at every
//! call site.

#[cfg(loom)]
pub(crate) use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(loom)]
pub(crate) use loom::thread;

#[cfg(not(loom))]
pub(crate) use std::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub(crate) use std::thread;

/// Acquires `m`, recovering from poisoning: the guarded structures are
/// never left logically torn by a panicking holder (each critical
/// section completes its update before releasing), so continuing with
/// the inner value is sound and keeps the service available.
#[expect(clippy::disallowed_methods, reason = "the designated lock helper")]
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Blocks on `cv`, with the same poisoning policy as [`lock`].
#[expect(clippy::disallowed_methods, reason = "the designated wait helper")]
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

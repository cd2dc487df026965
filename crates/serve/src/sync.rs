//! The serve crate's synchronization choke point: three jobs.
//!
//! 1. **The `cfg(loom)` shim.** Every sync primitive the serving layer
//!    uses comes from here, so `RUSTFLAGS="--cfg loom"` swaps `std::sync`
//!    for the vendored loom stand-in (`vendor/loom`) and
//!    `tests/loom_models.rs` runs the real serving code under perturbed
//!    schedules.
//! 2. **The poisoning policy.** [`lock`] and `wait` are the crate's only
//!    callers of `Mutex::lock` / `Condvar::wait` (`clippy.toml` disallows
//!    them elsewhere). A poisoned lock is recovered with `into_inner`, so
//!    a panicking worker cannot wedge the service: every guarded structure
//!    stays valid mid-update, and the install lock guards no data.
//! 3. **The lock order, in types.** Serve locks are taken in increasing
//!    rank only; the ranks are the markers below, ordered by
//!    [`LockBefore`]. A [`Level`] token of rank `L` stands for "every lock
//!    held ranks at most `L`". Each lock's designated helper takes
//!    `&mut Level<L>` for an `L` below its rank and returns its guard with
//!    a token of its own rank, both borrowing the one it was given, so an
//!    inversion is a type error. Public lock-taking methods and the worker
//!    entry point mint the root token ([`Level::root`]); crate-internal
//!    code passes on the token it holds to each such method's `_at` form
//!    instead, and `clippy.toml` disallows the minting methods there.
//!
//! # Planted inversions
//!
//! `lock_queue` taken while the `lock_entries` token is live; the install
//! lock taken under the snapshot slot, which would make a reader's
//! `snapshot()` wait for an install to be built; and an inversion one
//! call deep, which fails at the call because the callee's bound names
//! the rank it takes:
//!
//! ```compile_fail,E0277
//! # use atis_serve::sync::*; use std::sync::Mutex;
//! # let [queue, writer, current, entries, slot, breaker] = [(); 6].map(|()| Mutex::new(()));
//! let mut root = Level::root();
//! let (_entries, at_entries): Locked<_, Entries> = lock(&mut root, &entries);
//! let _queue: Locked<_, Queue> = lock(at_entries, &queue);
//! ```
//!
//! ```compile_fail,E0277
//! # use atis_serve::sync::*; use std::sync::Mutex;
//! # let [queue, writer, current, entries, slot, breaker] = [(); 6].map(|()| Mutex::new(()));
//! let mut root = Level::root();
//! let (_current, at_current): Locked<_, Current> = lock(&mut root, &current);
//! let _writer: Locked<_, Writer> = lock(at_current, &writer);
//! ```
//!
//! ```compile_fail,E0277
//! # use atis_serve::sync::*; use std::sync::Mutex;
//! # let [queue, writer, current, entries, slot, breaker] = [(); 6].map(|()| Mutex::new(()));
//! fn resolve(slot: &Mutex<()>, level: &mut Level<impl LockBefore<Slot>>) {
//!     let _slot: Locked<_, Slot> = lock(level, slot);
//! }
//! let mut root = Level::root();
//! let (_breaker, at_breaker): Locked<_, Breaker> = lock(&mut root, &breaker);
//! resolve(&slot, at_breaker);
//! ```
//!
//! Their twins differ only in the order of acquisition and compile, so
//! the three above fail on the order, not on a typo:
//!
//! ```
//! # use atis_serve::sync::*; use std::sync::Mutex;
//! # let [queue, writer, current, entries, slot, breaker] = [(); 6].map(|()| Mutex::new(()));
//! let mut root = Level::root();
//! let (_queue, at_queue): Locked<_, Queue> = lock(&mut root, &queue);
//! let _entries: Locked<_, Entries> = lock(at_queue, &entries);
//!
//! let mut root = Level::root();
//! let (_writer, at_writer): Locked<_, Writer> = lock(&mut root, &writer);
//! let _current: Locked<_, Current> = lock(at_writer, &current);
//!
//! fn trip(breaker: &Mutex<()>, level: &mut Level<impl LockBefore<Breaker>>) {
//!     let _breaker: Locked<_, Breaker> = lock(level, breaker);
//! }
//! let mut root = Level::root();
//! let (_slot, at_slot): Locked<_, Slot> = lock(&mut root, &slot);
//! trip(&breaker, at_slot);
//! ```

use std::marker::PhantomData;

#[cfg(loom)]
pub(crate) use loom::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(loom)]
pub(crate) use loom::thread;

#[cfg(not(loom))]
pub(crate) use std::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub(crate) use std::thread;

/// Rank 0: no serve lock held, the level of [`Level::root`].
pub enum Unlocked {}
/// Rank 1: the admission queue (`Shared::lock_queue`).
pub enum Queue {}
/// Rank 2: the install lock (`ShardedEpochDb::lock_writer`).
pub enum Writer {}
/// Rank 3: the epoch snapshot slot (`ShardedEpochDb::lock_current`).
pub enum Current {}
/// Rank 4: the route-cache table (`RouteCache::lock_entries`).
pub enum Entries {}
/// Rank 5: a ticket's answer slot (`TicketInner::lock_slot`).
pub enum Slot {}
/// Rank 6: a circuit breaker's state (`CircuitBreaker::lock_breaker`).
pub enum Breaker {}

/// `Self` ranks below `M`: a holder of a `Level<Self>` may take a lock of
/// rank `M`.
pub trait LockBefore<M> {}

/// Implements [`LockBefore`] from every rank to every later one, so the
/// argument list is the lock order.
macro_rules! order {
    () => {};
    ($low:ident $(, $high:ident)*) => {
        $(impl LockBefore<$high> for $low {})*
        order!($($high),*);
    };
}
order!(Unlocked, Queue, Writer, Current, Entries, Slot, Breaker);

/// A zero-sized token for lock level `L`. Only [`Level::root`] and
/// [`lock`] make one. Not `Send`: a token speaks for the locks its own
/// thread holds.
pub struct Level<L>(PhantomData<(L, *const ())>);

impl<L> std::fmt::Debug for Level<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Level<{}>", std::any::type_name::<L>())
    }
}

impl Level<Unlocked> {
    /// The root token. Minted only by public lock-taking methods and
    /// thread entry points, which hold no serve lock when they start.
    pub fn root() -> Self {
        Level(PhantomData)
    }
}

/// A guard on a lock of rank `M` and the token of that rank.
pub type Locked<'a, T, M> = (MutexGuard<'a, T>, &'a mut Level<M>);

/// Acquires `m` as a lock of rank `M` under a token of a lower rank `L`.
/// The guard and the returned token both borrow `level`, so it takes no
/// other lock until both are gone. A poisoned lock is recovered: each
/// critical section completes its update before releasing.
#[expect(clippy::disallowed_methods, reason = "the designated lock helper")]
pub fn lock<'a, L: LockBefore<M>, M, T>(
    level: &'a mut Level<L>,
    m: &'a Mutex<T>,
) -> Locked<'a, T, M> {
    let _ = level;
    let guard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // A zero-sized `Box` allocates nothing, so leaking one is free: it
    // is how a `&'a mut` to a fresh token is made without `unsafe`.
    (guard, Box::leak(Box::new(Level(PhantomData))))
}

/// Blocks on `cv`, with the same poisoning policy as [`lock`].
#[expect(clippy::disallowed_methods, reason = "the designated wait helper")]
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

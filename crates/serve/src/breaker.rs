//! The serving layer's circuit breaker.
//!
//! A breaker watches one failure-prone resource — in `RouteService`,
//! the storage engine — and cuts traffic to it once typed errors pile
//! up, so a browning-out disk degrades service *once* instead of making
//! every request rediscover the outage at full I/O cost. The classic three-state machine, driven entirely by the
//! service's deterministic virtual clock (no wall time, consistent with
//! the analyze determinism rules):
//!
//! ```text
//!        failure (count < threshold)
//!        ┌──────┐
//!        ▼      │
//!      CLOSED ──┴── count == threshold ──▶ OPEN (until = now + open_ticks)
//!        ▲                                   │
//!        │ probe succeeds                    │ now >= until
//!        │                                   ▼
//!        └────────────────────────────── HALF-OPEN ── probe fails ──▶ OPEN
//! ```
//!
//! * **Closed** — traffic flows; consecutive typed failures are counted,
//!   any success resets the count.
//! * **Open** — traffic is denied (the service runs no rung and falls
//!   through to stale-serve) until the virtual clock reaches `until`.
//! * **Half-open** — up to `probes` requests are admitted as probes; one
//!   success re-closes the breaker, one failure re-opens it for another
//!   `open_ticks`.
//!
//! State transitions are reported back to the caller (never emitted from
//! inside the lock) so the service can mirror them into trace events and
//! metrics.

use crate::sync::{self, Mutex, MutexGuard};

/// Tuning for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive typed failures that trip a closed breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker denies traffic, in virtual-time ticks.
    pub open_ticks: u64,
    /// Concurrent probe requests a half-open breaker admits.
    pub probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_ticks: 256,
            probes: 1,
        }
    }
}

/// A breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Traffic is denied until the virtual clock reaches `until`.
    Open {
        /// Tick at which the breaker transitions to half-open.
        until: u64,
    },
    /// Bounded probing is in progress.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (trace events, wire, docs).
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// A state transition, reported so the service can emit it as a trace
/// event outside the breaker lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// What [`CircuitBreaker::admit`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allow,
    /// Breaker half-open: proceed, and report the result — this request
    /// decides whether the breaker re-closes.
    Probe,
    /// Breaker open: do not touch the resource; retry in `retry_after`
    /// ticks.
    Deny {
        /// Ticks until the breaker will half-open.
        retry_after: u64,
    },
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    probes_in_flight: u32,
}

/// A three-state circuit breaker over a deterministic virtual clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                probes_in_flight: 0,
            }),
        }
    }

    /// Designated acquirer for the breaker state (rank 6, innermost in
    /// the declared lock order — see `sync.rs`).
    fn lock_breaker(&self) -> MutexGuard<'_, Inner> {
        sync::lock(&self.state)
    }

    /// The tuning in force.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// A snapshot of the current state (no time-based transition is
    /// applied; use [`CircuitBreaker::admit`] to drive the machine).
    pub fn state(&self) -> BreakerState {
        self.lock_breaker().state
    }

    /// Gates one request at virtual time `now`. An open breaker whose
    /// window has elapsed transitions to half-open here and admits the
    /// caller as the probe.
    pub fn admit(&self, now: u64) -> (Admission, Option<BreakerTransition>) {
        let mut inner = self.lock_breaker();
        match inner.state {
            BreakerState::Closed => (Admission::Allow, None),
            BreakerState::Open { until } if now >= until => {
                let from = inner.state;
                inner.state = BreakerState::HalfOpen;
                inner.probes_in_flight = 1;
                (
                    Admission::Probe,
                    Some(BreakerTransition {
                        from,
                        to: BreakerState::HalfOpen,
                    }),
                )
            }
            BreakerState::Open { until } => (
                Admission::Deny {
                    retry_after: until.saturating_sub(now).max(1),
                },
                None,
            ),
            BreakerState::HalfOpen => {
                if inner.probes_in_flight < self.config.probes {
                    inner.probes_in_flight += 1;
                    (Admission::Probe, None)
                } else {
                    (Admission::Deny { retry_after: 1 }, None)
                }
            }
        }
    }

    /// Records a success against the resource. Re-closes a half-open
    /// breaker; resets the failure count of a closed one.
    pub fn on_success(&self) -> Option<BreakerTransition> {
        let mut inner = self.lock_breaker();
        inner.consecutive_failures = 0;
        match inner.state {
            BreakerState::HalfOpen => {
                let from = inner.state;
                inner.state = BreakerState::Closed;
                inner.probes_in_flight = 0;
                Some(BreakerTransition {
                    from,
                    to: BreakerState::Closed,
                })
            }
            _ => None,
        }
    }

    /// Returns a half-open probe slot without judging the resource: the
    /// probe run was aborted for an unrelated reason (a deadline shed, a
    /// caller-side error), so its outcome says nothing about health. A
    /// no-op in any other state — a concurrent success/failure already
    /// resolved the machine, and the slot accounting went with it.
    pub fn release_probe(&self) {
        let mut inner = self.lock_breaker();
        if inner.state == BreakerState::HalfOpen {
            inner.probes_in_flight = inner.probes_in_flight.saturating_sub(1);
        }
    }

    /// Records a typed failure against the resource at virtual time
    /// `now`. Trips a closed breaker at the threshold; re-opens a
    /// half-open one immediately.
    pub fn on_failure(&self, now: u64) -> Option<BreakerTransition> {
        let mut inner = self.lock_breaker();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    let from = inner.state;
                    inner.state = BreakerState::Open {
                        until: now + self.config.open_ticks,
                    };
                    inner.consecutive_failures = 0;
                    return Some(BreakerTransition {
                        from,
                        to: inner.state,
                    });
                }
                None
            }
            BreakerState::HalfOpen => {
                let from = inner.state;
                inner.state = BreakerState::Open {
                    until: now + self.config.open_ticks,
                };
                inner.probes_in_flight = 0;
                Some(BreakerTransition {
                    from,
                    to: inner.state,
                })
            }
            BreakerState::Open { .. } => None,
        }
    }
}

/// Resolves one admitted request against its breaker exactly once.
///
/// Wraps the [`Admission`] that [`CircuitBreaker::admit`] returned for a
/// request: [`ProbeGuard::success`] / [`ProbeGuard::failure`] report the
/// verdict, and dropping a guard that never reached a verdict (the run
/// was shed on its deadline, or failed for a reason unrelated to the
/// resource) releases the probe slot via
/// [`CircuitBreaker::release_probe`]. Without the release, an aborted
/// probe would leave `probes_in_flight` saturated and wedge the breaker
/// half-open, denying every future admit — the resource would stay
/// bypassed forever even after it recovered.
#[derive(Debug)]
pub struct ProbeGuard<'a> {
    breaker: &'a CircuitBreaker,
    pending: bool,
}

impl<'a> ProbeGuard<'a> {
    /// Guards `breaker` for the request that `admit` answered with
    /// `admission`. Only [`Admission::Probe`] holds a slot to release;
    /// the other admissions make the guard a plain success/failure
    /// forwarder.
    pub fn new(breaker: &'a CircuitBreaker, admission: Admission) -> Self {
        ProbeGuard {
            breaker,
            pending: matches!(admission, Admission::Probe),
        }
    }

    /// Reports the run as a success and defuses the guard.
    pub fn success(&mut self) -> Option<BreakerTransition> {
        self.pending = false;
        self.breaker.on_success()
    }

    /// Reports the run as a typed failure at virtual time `now` and
    /// defuses the guard.
    pub fn failure(&mut self, now: u64) -> Option<BreakerTransition> {
        self.pending = false;
        self.breaker.on_failure(now)
    }
}

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        if self.pending {
            self.breaker.release_probe();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, open_ticks: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            open_ticks,
            probes: 1,
        })
    }

    #[test]
    fn trips_open_at_the_threshold_and_not_before() {
        let b = breaker(3, 100);
        assert_eq!(b.on_failure(10), None);
        assert_eq!(b.on_failure(11), None);
        let t = b.on_failure(12).expect("third failure trips");
        assert_eq!(t.from, BreakerState::Closed);
        assert_eq!(t.to, BreakerState::Open { until: 112 });
        assert_eq!(b.state(), BreakerState::Open { until: 112 });
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = breaker(3, 100);
        b.on_failure(1);
        b.on_failure(2);
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_failure(3), None);
        assert_eq!(b.on_failure(4), None);
        assert!(b.on_failure(5).is_some(), "count restarted after success");
    }

    #[test]
    fn open_denies_with_a_countdown_then_half_opens() {
        let b = breaker(1, 50);
        b.on_failure(10);
        let (admission, t) = b.admit(20);
        assert_eq!(admission, Admission::Deny { retry_after: 40 });
        assert!(t.is_none());
        let (admission, t) = b.admit(60);
        assert_eq!(admission, Admission::Probe);
        assert_eq!(t.expect("open -> half-open").to, BreakerState::HalfOpen);
        // Only one probe at a time.
        let (second, _) = b.admit(61);
        assert_eq!(second, Admission::Deny { retry_after: 1 });
    }

    #[test]
    fn probe_success_recloses_and_probe_failure_reopens() {
        let b = breaker(1, 50);
        b.on_failure(0);
        b.admit(50);
        let t = b.on_success().expect("half-open -> closed");
        assert_eq!(t.to, BreakerState::Closed);
        assert_eq!(b.admit(51).0, Admission::Allow);

        b.on_failure(60);
        b.admit(110);
        let t = b.on_failure(111).expect("half-open -> open");
        assert_eq!(t.to, BreakerState::Open { until: 161 });
    }

    #[test]
    fn failures_while_open_are_ignored() {
        let b = breaker(1, 50);
        b.on_failure(0);
        assert_eq!(b.on_failure(1), None);
        assert_eq!(b.state(), BreakerState::Open { until: 50 });
    }

    #[test]
    fn an_aborted_probe_releases_its_slot_instead_of_wedging_half_open() {
        let b = breaker(1, 50);
        b.on_failure(0);
        let (admission, _) = b.admit(50);
        assert_eq!(admission, Admission::Probe);
        // The probe run is aborted (deadline shed) with no verdict: the
        // guard's drop must hand the slot back so the next admit probes
        // again instead of being denied forever.
        drop(ProbeGuard::new(&b, admission));
        let (next, _) = b.admit(51);
        assert_eq!(next, Admission::Probe);
    }

    #[test]
    fn a_defused_guard_does_not_release_on_drop() {
        let b = breaker(1, 50);
        b.on_failure(0);
        let (admission, _) = b.admit(50);
        let mut guard = ProbeGuard::new(&b, admission);
        let t = guard.success().expect("half-open -> closed");
        assert_eq!(t.to, BreakerState::Closed);
        drop(guard);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(51).0, Admission::Allow);
    }

    #[test]
    fn release_probe_is_a_no_op_outside_half_open() {
        let b = breaker(1, 50);
        b.release_probe();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(0);
        b.release_probe();
        assert_eq!(b.state(), BreakerState::Open { until: 50 });
        // A probe whose failure already re-opened the breaker: the late
        // release must not disturb the open state.
        let (admission, _) = b.admit(50);
        let mut guard = ProbeGuard::new(&b, admission);
        guard.failure(50);
        drop(guard);
        assert_eq!(b.state(), BreakerState::Open { until: 100 });
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open { until: 9 }.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half-open");
    }
}

//! Typed serving-layer failures.

use atis_algorithms::AlgorithmError;
use std::fmt;

/// Why admission control (or the overload policy) refused to spend more
/// work on a request. Every reason is actionable for the client: back
/// off for `retry_after` virtual ticks and try again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded submission queue was full and nothing lower-priority
    /// could be displaced.
    QueueFull,
    /// The request's deadline expired — while queued, or mid-run when
    /// the deadline-derived cost budget ran out.
    DeadlineExpired,
    /// A queued bulk request was evicted to admit interactive work.
    Displaced,
    /// A circuit breaker is open for a resource the request needs, and
    /// no stale answer was available to degrade to.
    BreakerOpen,
}

impl ShedReason {
    /// Stable lowercase label (wire protocol, trace events).
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::Displaced => "displaced",
            ShedReason::BreakerOpen => "breaker-open",
        }
    }
}

/// Why the serving layer could not answer a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The overload policy shed this request: admission refused it, it
    /// was displaced from the queue, or its deadline expired. This is
    /// the `SHED` wire reply, not a failure of the request itself — the
    /// client should back off and retry.
    Shed {
        /// Why the request was shed.
        reason: ShedReason,
        /// Suggested back-off before retrying, in virtual-time ticks.
        retry_after: u64,
        /// Queue depth at the moment of shedding.
        queue_depth: usize,
    },
    /// The service is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The degrade ladder's walk ended without an answer, and this is the
    /// error of the last rung that ran: unknown endpoints, a storage
    /// fault the stale tier could not cover, or the database's standing
    /// budget (an exhausted budget ends the walk; it never falls to a
    /// lower rung).
    Algorithm(AlgorithmError),
}

impl ServeError {
    /// Whether this is a shed (overload push-back) rather than a hard
    /// failure.
    pub fn is_shed(&self) -> bool {
        matches!(self, ServeError::Shed { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shed {
                reason,
                retry_after,
                queue_depth,
            } => {
                write!(
                    f,
                    "shed ({}): retry after {retry_after} ticks ({queue_depth} waiting)",
                    reason.label()
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Algorithm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Algorithm(e) => Some(e),
            ServeError::Shed { .. } | ServeError::ShuttingDown => None,
        }
    }
}

impl From<AlgorithmError> for ServeError {
    fn from(e: AlgorithmError) -> Self {
        ServeError::Algorithm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let shed = ServeError::Shed {
            reason: ShedReason::QueueFull,
            retry_after: 12,
            queue_depth: 8,
        };
        assert!(shed.to_string().contains("8 waiting"));
        assert!(shed.to_string().contains("queue-full"));
        assert!(shed.to_string().contains("12 ticks"));
        assert!(shed.is_shed());
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(!ServeError::ShuttingDown.is_shed());
        let e = ServeError::from(AlgorithmError::UnknownSource(atis_graph::NodeId(9)));
        assert!(e.to_string().contains("unknown source"));
    }

    #[test]
    fn shed_reason_labels_are_stable() {
        assert_eq!(ShedReason::QueueFull.label(), "queue-full");
        assert_eq!(ShedReason::DeadlineExpired.label(), "deadline-expired");
        assert_eq!(ShedReason::Displaced.label(), "displaced");
        assert_eq!(ShedReason::BreakerOpen.label(), "breaker-open");
    }
}
